"""The cost ADT: comparisons, choose-plan cost, and per-operator
formulas, including the central interval-containment property."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.expressions import (
    Comparison,
    ComparisonOp,
    JoinPredicate,
    SelectionPredicate,
    UserVariable,
)
from repro.algebra.physical import (
    BTreeScan,
    ChoosePlan,
    FileScan,
    Filter,
    FilterBTreeScan,
    HashJoin,
    IndexJoin,
    MergeJoin,
    Project,
    Sort,
)
from repro.catalog import (
    IndexInfo,
    SyntheticRelationSpec,
    build_synthetic_catalog,
    default_relation_specs,
)
from repro.common.intervals import Interval
from repro.common.ordering import PartialOrder
from repro.cost.formulas import (
    CostModel,
    RowBuilder,
    btree_height,
    btree_leaf_pages,
)
from repro.cost.model import (
    CHOOSE_PLAN_OVERHEAD_SECONDS,
    choose_plan_cost,
    compare_costs,
)
from repro.cost.parameters import Bindings, Parameter, ParameterSpace, Valuation


@pytest.fixture(scope="module")
def catalog():
    return build_synthetic_catalog(default_relation_specs(2, seed=0), seed=0)


def selection(rel="R1"):
    return SelectionPredicate(
        Comparison("%s.a" % rel, ComparisonOp.LT, UserVariable("v_%s" % rel)),
        selectivity_parameter="sel_%s" % rel,
    )


def space(memory_uncertain=False):
    result = ParameterSpace(
        [Parameter.selectivity("sel_R1"), Parameter.selectivity("sel_R2")]
    )
    result.add(Parameter.memory(uncertain=memory_uncertain))
    return result


class TestCostAdt:
    def test_choose_plan_cost_paper_example(self):
        # Paper Section 5: alternatives [0,10] and [1,1] with overhead
        # [0.01, 0.01] combine to [0.01, 1.01].
        cost = choose_plan_cost([Interval(0, 10), Interval(1, 1)], overhead=0.01)
        assert cost == Interval(0.01, 1.01)

    def test_default_overhead_applied(self):
        cost = choose_plan_cost([Interval(1, 2), Interval(3, 4)])
        assert cost == Interval(1, 2) + Interval.point(
            CHOOSE_PLAN_OVERHEAD_SECONDS
        )

    def test_compare_costs_normal(self):
        assert compare_costs(Interval(1, 2), Interval(3, 4)) is PartialOrder.LESS

    def test_compare_costs_exhaustive_mode(self):
        # Exhaustive mode declares everything incomparable except
        # identical points.
        assert (
            compare_costs(Interval(1, 2), Interval(30, 40), exhaustive=True)
            is PartialOrder.INCOMPARABLE
        )
        assert (
            compare_costs(Interval(2), Interval(2), exhaustive=True)
            is PartialOrder.EQUAL
        )


class TestBTreeEstimates:
    def test_height_grows_logarithmically(self):
        assert btree_height(1) == 1
        assert btree_height(32) <= btree_height(1024)
        assert btree_height(1000) <= 4

    def test_leaf_pages(self):
        assert btree_leaf_pages(1) == 1
        assert btree_leaf_pages(64) == 2
        assert btree_leaf_pages(1000) == 32


class TestScanFormulas:
    def test_file_scan_cost_is_point(self, catalog):
        model = CostModel(catalog, Valuation.bounds(space()))
        result = model.evaluate(FileScan("R1"))
        assert result.cost.is_point
        assert result.cardinality == Interval.point(catalog.cardinality("R1"))
        assert result.sort_orders == frozenset()

    def test_btree_scan_delivers_order_and_costs_more(self, catalog):
        model = CostModel(catalog, Valuation.bounds(space()))
        file_scan = model.evaluate(FileScan("R1"))
        btree_scan = model.evaluate(BTreeScan("R1", "a"))
        assert btree_scan.sort_orders == frozenset({"R1.a"})
        # Unclustered full index scan is strictly worse than a file scan.
        assert btree_scan.cost.lower > file_scan.cost.upper

    def test_filter_btree_scan_interval_spans_selectivities(self, catalog):
        model = CostModel(catalog, Valuation.bounds(space()))
        result = model.evaluate(FilterBTreeScan("R1", "a", selection("R1")))
        assert not result.cost.is_point
        assert result.cardinality.lower == 0.0
        assert result.cardinality.upper == catalog.cardinality("R1")

    def test_filter_btree_scan_cheap_at_low_selectivity(self, catalog):
        bindings = Bindings().bind("sel_R1", 0.01)
        runtime = CostModel(catalog, Valuation.runtime(space(), bindings))
        fbs = runtime.evaluate(FilterBTreeScan("R1", "a", selection("R1")))
        scan = runtime.evaluate(Filter(FileScan("R1"), selection("R1")))
        assert fbs.cost.lower < scan.cost.lower

    def test_filter_btree_scan_expensive_at_high_selectivity(self, catalog):
        bindings = Bindings().bind("sel_R1", 0.9)
        runtime = CostModel(catalog, Valuation.runtime(space(), bindings))
        fbs = runtime.evaluate(FilterBTreeScan("R1", "a", selection("R1")))
        scan = runtime.evaluate(Filter(FileScan("R1"), selection("R1")))
        assert fbs.cost.lower > scan.cost.lower

    def test_filter_preserves_input_order(self, catalog):
        model = CostModel(catalog, Valuation.bounds(space()))
        result = model.evaluate(Filter(BTreeScan("R1", "a"), selection("R1")))
        assert result.sort_orders == frozenset({"R1.a"})


class TestJoinFormulas:
    def _scans(self):
        left = Filter(FileScan("R1"), selection("R1"))
        right = Filter(FileScan("R2"), selection("R2"))
        return left, right

    def test_join_selectivity_uses_larger_domain(self, catalog):
        rows = RowBuilder(catalog, read=None)
        predicate = JoinPredicate("R1.b", "R2.c")
        expected = 1.0 / max(
            catalog.domain_size("R1", "b"), catalog.domain_size("R2", "c")
        )
        assert rows.join_selectivity([predicate]) == pytest.approx(expected)

    def test_hash_join_output_cardinality(self, catalog):
        model = CostModel(catalog, Valuation.bounds(space()))
        left, right = self._scans()
        join = HashJoin(left, right, JoinPredicate("R1.b", "R2.c"))
        result = model.evaluate(join)
        jsel = RowBuilder(catalog, read=None).join_selectivity(join.predicates)
        expected_upper = (
            catalog.cardinality("R1") * catalog.cardinality("R2") * jsel
        )
        assert result.cardinality.upper == pytest.approx(expected_upper)
        assert result.cardinality.lower == pytest.approx(0.0)

    def test_hash_join_scrambles_order(self, catalog):
        model = CostModel(catalog, Valuation.bounds(space()))
        join = HashJoin(
            BTreeScan("R1", "b"), FileScan("R2"), JoinPredicate("R1.b", "R2.c")
        )
        assert model.evaluate(join).sort_orders == frozenset()

    def test_hash_join_memory_sensitivity(self, catalog):
        # Less memory -> spill -> more cost; with interval memory the
        # cost interval must widen.
        s = space(memory_uncertain=True)
        uncertain = CostModel(catalog, Valuation.bounds(s)).evaluate(
            HashJoin(
                FileScan("R2"), FileScan("R1"), JoinPredicate("R1.b", "R2.c")
            )
        )
        fixed = CostModel(catalog, Valuation.expected(s)).evaluate(
            HashJoin(
                FileScan("R2"), FileScan("R1"), JoinPredicate("R1.b", "R2.c")
            )
        )
        assert uncertain.cost.lower <= fixed.cost.lower
        assert uncertain.cost.upper >= fixed.cost.upper

    def test_merge_join_delivers_both_join_attributes(self, catalog):
        model = CostModel(catalog, Valuation.bounds(space()))
        join = MergeJoin(
            BTreeScan("R1", "b"),
            BTreeScan("R2", "c"),
            JoinPredicate("R1.b", "R2.c"),
        )
        assert model.evaluate(join).sort_orders == frozenset({"R1.b", "R2.c"})

    def test_index_join_cost_grows_with_outer(self, catalog):
        bindings_small = Bindings().bind("sel_R1", 0.05)
        bindings_large = Bindings().bind("sel_R1", 0.95)
        join = IndexJoin(
            Filter(FileScan("R1"), selection("R1")),
            "R2",
            "c",
            JoinPredicate("R1.b", "R2.c"),
            residual_predicate=selection("R2"),
        )
        small = CostModel(
            catalog, Valuation.runtime(space(), bindings_small)
        ).evaluate(join)
        large = CostModel(
            catalog, Valuation.runtime(space(), bindings_large)
        ).evaluate(join)
        assert large.cost.lower > small.cost.lower

    def test_index_join_preserves_outer_order(self, catalog):
        model = CostModel(catalog, Valuation.bounds(space()))
        join = IndexJoin(
            BTreeScan("R1", "b"), "R2", "c", JoinPredicate("R1.b", "R2.c")
        )
        assert model.evaluate(join).sort_orders == frozenset({"R1.b"})


class TestEnforcerFormulas:
    def test_sort_delivers_requested_order(self, catalog):
        model = CostModel(catalog, Valuation.bounds(space()))
        result = model.evaluate(Sort(FileScan("R1"), "R1.b"))
        assert result.sort_orders == frozenset({"R1.b"})
        assert result.cost.lower > model.evaluate(FileScan("R1")).cost.lower

    def test_sort_memory_sensitivity(self, catalog):
        tight = Bindings().bind("memory_pages", 2)
        roomy = Bindings().bind("memory_pages", 500)
        s = space(memory_uncertain=True)
        plan = Sort(FileScan("R2"), "R2.b")
        cost_tight = CostModel(
            catalog, Valuation.runtime(s, tight)
        ).evaluate(plan).cost
        cost_roomy = CostModel(
            catalog, Valuation.runtime(s, roomy)
        ).evaluate(plan).cost
        assert cost_tight.lower > cost_roomy.lower

    def test_choose_plan_cost_is_min_envelope_plus_overhead(self, catalog):
        model = CostModel(catalog, Valuation.bounds(space()))
        a = Filter(FileScan("R1"), selection("R1"))
        b = FilterBTreeScan("R1", "a", selection("R1"))
        choose = ChoosePlan([a, b])
        result = model.evaluate(choose)
        expected = Interval.envelope_min(
            [model.evaluate(a).cost, model.evaluate(b).cost]
        ) + Interval.point(CHOOSE_PLAN_OVERHEAD_SECONDS)
        assert result.cost == expected

    def test_choose_plan_sort_orders_intersect(self, catalog):
        model = CostModel(catalog, Valuation.bounds(space()))
        choose = ChoosePlan([BTreeScan("R1", "a"), FileScan("R1")])
        assert model.evaluate(choose).sort_orders == frozenset()


class TestMemoization:
    def test_shared_subplans_evaluated_once(self, catalog):
        model = CostModel(catalog, Valuation.bounds(space()))
        scan = FileScan("R1")
        plan = ChoosePlan([Sort(scan, "R1.a"), Sort(scan, "R1.b")])
        model.evaluate(plan)
        # choose + 2 sorts + 1 scan = 4 evaluations, not 5.
        assert model.evaluations == 4

    def test_invalidate_clears_cache(self, catalog):
        model = CostModel(catalog, Valuation.bounds(space()))
        scan = FileScan("R1")
        model.evaluate(scan)
        model.invalidate()
        model.evaluate(scan)
        assert model.evaluations == 2


class TestIntervalContainment:
    """For any binding within bounds, the runtime (point) cost must lie
    within the compile-time cost interval — the property that makes the
    optimality guarantee of Section 3 sound."""

    def _plans(self):
        sel1, sel2 = selection("R1"), selection("R2")
        predicate = JoinPredicate("R1.b", "R2.c")
        left = Filter(FileScan("R1"), sel1)
        right = FilterBTreeScan("R2", "a", sel2)
        return [
            left,
            right,
            HashJoin(left, right, predicate),
            MergeJoin(
                Sort(left, "R1.b"), Sort(right, "R2.c"), predicate
            ),
            IndexJoin(left, "R2", "c", predicate, residual_predicate=sel2),
            ChoosePlan([HashJoin(left, right, predicate),
                        HashJoin(right, left, predicate.flipped())]),
        ]

    @settings(max_examples=40, deadline=None)
    @given(
        sel1=st.floats(0, 1), sel2=st.floats(0, 1),
        memory=st.integers(16, 112),
    )
    def test_runtime_cost_within_compile_interval(self, catalog, sel1, sel2,
                                                  memory):
        s = space(memory_uncertain=True)
        compile_model = CostModel(catalog, Valuation.bounds(s))
        bindings = (
            Bindings()
            .bind("sel_R1", sel1)
            .bind("sel_R2", sel2)
            .bind("memory_pages", memory)
        )
        runtime_model = CostModel(catalog, Valuation.runtime(s, bindings))
        for plan in self._plans():
            compile_cost = compile_model.evaluate(plan).cost
            runtime_cost = runtime_model.evaluate(plan).cost
            assert runtime_cost.is_point
            tolerance = 1e-9 + abs(compile_cost.upper) * 1e-9
            assert compile_cost.lower - tolerance <= runtime_cost.lower
            assert runtime_cost.lower <= compile_cost.upper + tolerance

    @settings(max_examples=40, deadline=None)
    @given(sel1=st.floats(0, 1), sel2=st.floats(0, 1))
    def test_runtime_cardinality_within_compile_interval(self, catalog, sel1,
                                                         sel2):
        s = space()
        compile_model = CostModel(catalog, Valuation.bounds(s))
        bindings = Bindings().bind("sel_R1", sel1).bind("sel_R2", sel2)
        runtime_model = CostModel(catalog, Valuation.runtime(s, bindings))
        for plan in self._plans():
            compile_card = compile_model.evaluate(plan).cardinality
            runtime_card = runtime_model.evaluate(plan).cardinality
            tolerance = 1e-9 + abs(compile_card.upper) * 1e-9
            assert compile_card.lower - tolerance <= runtime_card.lower
            assert runtime_card.upper <= compile_card.upper + tolerance


def kernel_nodes():
    """One node per operator kind a kernel costs, its inputs in slots 0
    and 1; the index join probes ``R2.c``."""
    sel = selection("R1")
    join = JoinPredicate("R1.b", "R2.c")
    scan = FileScan("R1")
    return {
        "filter_btree_scan": FilterBTreeScan("R1", "a", sel),
        "btree_scan": BTreeScan("R1", "a"),
        "filter": Filter(scan, sel),
        "hash_join": HashJoin(scan, FileScan("R2"), join),
        "merge_join": MergeJoin(scan, FileScan("R2"), join),
        "index_join": IndexJoin(scan, "R2", "c", join, residual_predicate=sel),
        "sort": Sort(scan, "R1.b"),
        "project": Project(scan, ("R1.a",)),
    }


def ordered_pair(values, gaps):
    """``(low, high)`` with ``high >= low``; often equal, so one input
    moves while the others stay put."""
    return st.tuples(values, st.one_of(st.just(0), gaps)).map(
        lambda pair: (pair[0], pair[0] + pair[1])
    )


class TestKernelMonotonicity:
    """Every kernel, run on a one-row segment, is non-decreasing in each
    input cardinality, input cost and selectivity and non-increasing in
    memory over the declared bounds, in every fetch mode.  Corner
    evaluation (``CostModel``'s lower corner never exceeds its upper
    one), interval containment and the optimality argument all rest on
    it."""

    @pytest.mark.parametrize("kind", sorted(kernel_nodes()))
    @settings(max_examples=150, deadline=None)
    @given(
        relation_cards=st.tuples(st.integers(1, 5000), st.integers(1, 5000)),
        fetch=st.sampled_from(["unclustered", "clustered", "buffered"]),
        cards=st.tuples(*[ordered_pair(st.floats(0, 1e5), st.floats(0, 1e5))] * 2),
        costs=st.tuples(*[ordered_pair(st.floats(0, 1e3), st.floats(0, 1e3))] * 2),
        selectivity=ordered_pair(st.floats(0, 1), st.floats(0, 1)).map(
            lambda pair: (pair[0], min(pair[1], 1.0))
        ),
        memory=ordered_pair(st.integers(16, 112), st.integers(0, 96)).map(
            lambda pair: (pair[0], min(pair[1], 112))
        ),
    )
    def test_kernel_is_monotone(
        self, kind, relation_cards, fetch, cards, costs, selectivity, memory
    ):
        catalog = build_synthetic_catalog(
            [
                SyntheticRelationSpec("R%d" % number, cardinality)
                for number, cardinality in enumerate(relation_cards, 1)
            ]
        )
        if fetch == "clustered":
            catalog.add_index(IndexInfo("R1", "a", clustered=True))
            catalog.add_index(IndexInfo("R2", "c", clustered=True))
        node = kernel_nodes()[kind]
        # Value list: the memory grant, the selectivity, and the 1.0 of
        # an absent predicate.
        rows = RowBuilder(
            catalog,
            lambda predicate: 2 if predicate is None else 1,
            buffered=fetch == "buffered",
        )
        kernel, row = rows.row(node, 2, [0, 1][: len(node.inputs())])
        if kernel is None:  # a constant: no input, no parameter read
            return

        def corner(end, memory_pages):
            work_costs = [costs[0][end], costs[1][end], 0.0]
            work_cards = [cards[0][end], cards[1][end], 0.0]
            values = [memory_pages, selectivity[end], 1.0]
            kernel([row], work_costs, work_cards, values, None)
            return work_costs[2], work_cards[2]

        lower_cost, lower_card = corner(0, memory[1])
        upper_cost, upper_card = corner(1, memory[0])
        assert lower_cost <= upper_cost
        assert lower_card <= upper_card
