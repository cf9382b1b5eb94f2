"""Property-based tests of the search engine's dominance pruning.

``SearchEngine._prune`` is the heart of dynamic-plan optimization: it
must keep exactly the *potentially optimal* candidates.  We drive it
with synthetic candidate sets and assert the defining properties:

* the kept set is an antichain (pairwise incomparable under the
  paper's interval comparison, up to retained equal-cost ties);
* every dropped candidate is dominated by some kept candidate;
* the minimum envelope of the kept set equals that of the input set
  (nothing potentially optimal was lost);
* static mode reduces to the classic single winner;
* the comparison ``_prune`` makes inline on the four bounds decides
  every pair as :func:`repro.cost.model.compare_costs` does.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.intervals import Interval
from repro.common.ordering import PartialOrder
from repro.cost.model import CostResult, compare_costs
from repro.optimizer import OptimizerConfig, SearchEngine
from repro.optimizer.search import SearchStatistics


class _FakePlan:
    """Stands in for a physical plan during pruning tests."""

    def __init__(self, index):
        self.index = index

    def __repr__(self):
        return "plan%d" % self.index


def make_engine(config):
    engine = SearchEngine(catalog=None, config=config)
    engine.stats = SearchStatistics()
    return engine


def candidates_from(intervals):
    return [
        (_FakePlan(index), CostResult(interval, Interval.point(1.0)))
        for index, interval in enumerate(intervals)
    ]


@st.composite
def interval_lists(draw):
    count = draw(st.integers(1, 10))
    intervals = []
    for _ in range(count):
        a = draw(st.floats(0, 100, allow_nan=False))
        b = draw(st.floats(0, 100, allow_nan=False))
        intervals.append(Interval(min(a, b), max(a, b)))
    return intervals


class TestDynamicPruning:
    @settings(max_examples=80, deadline=None)
    @given(intervals=interval_lists())
    def test_kept_set_is_antichain(self, intervals):
        engine = make_engine(OptimizerConfig.dynamic())
        kept = engine._prune(candidates_from(intervals))
        for i, (_, result_a) in enumerate(kept):
            for j, (_, result_b) in enumerate(kept):
                if i == j:
                    continue
                relation = result_a.cost.compare(result_b.cost)
                # EQUAL ties are retained by the paper's prototype.
                assert relation in (
                    PartialOrder.INCOMPARABLE,
                    PartialOrder.EQUAL,
                )

    @settings(max_examples=80, deadline=None)
    @given(intervals=interval_lists())
    def test_dropped_candidates_are_dominated(self, intervals):
        engine = make_engine(OptimizerConfig.dynamic())
        candidates = candidates_from(intervals)
        kept = engine._prune(candidates)
        kept_ids = {id(plan) for plan, _ in kept}
        for plan, result in candidates:
            if id(plan) in kept_ids:
                continue
            assert any(
                kept_result.cost.compare(result.cost)
                in (PartialOrder.LESS, PartialOrder.EQUAL)
                for _, kept_result in kept
            ), "dropped %r (%r) without a dominator" % (plan, result.cost)

    @settings(max_examples=80, deadline=None)
    @given(intervals=interval_lists())
    def test_min_envelope_preserved(self, intervals):
        engine = make_engine(OptimizerConfig.dynamic())
        kept = engine._prune(candidates_from(intervals))
        assert kept
        input_envelope = Interval.envelope_min(intervals)
        kept_envelope = Interval.envelope_min(
            [result.cost for _, result in kept]
        )
        assert kept_envelope.lower == pytest.approx(input_envelope.lower)
        assert kept_envelope.upper == pytest.approx(input_envelope.upper)

    @settings(max_examples=50, deadline=None)
    @given(intervals=interval_lists())
    def test_pruning_idempotent(self, intervals):
        engine = make_engine(OptimizerConfig.dynamic())
        once = engine._prune(candidates_from(intervals))
        twice = engine._prune(once)
        assert [id(plan) for plan, _ in once] == [
            id(plan) for plan, _ in twice
        ]

    def test_equal_ties_kept_in_the_paper_form(self):
        engine = make_engine(
            OptimizerConfig.dynamic(keep_equal_cost_plans=True)
        )
        kept = engine._prune(
            candidates_from([Interval.point(5), Interval.point(5)])
        )
        assert len(kept) == 2

    def test_equal_ties_dropped_when_configured(self):
        """``keep_equal_cost_plans=False`` is also the default."""
        for config in (
            OptimizerConfig.dynamic(),
            OptimizerConfig.dynamic(keep_equal_cost_plans=False),
        ):
            engine = make_engine(config)
            kept = engine._prune(
                candidates_from([Interval.point(5), Interval.point(5)])
            )
            assert len(kept) == 1


def prune_with_compare_costs(candidates, drop_equal):
    """``_prune`` with every pair decided by ``compare_costs`` — the
    reference the engine's inlined comparison must agree with."""
    kept = []
    for plan, result in candidates:
        dominated = False
        survivors = []
        for pair in kept:
            relation = (
                None if dominated else compare_costs(pair[1].cost, result.cost)
            )
            if relation is PartialOrder.LESS:
                dominated = True
            elif relation is PartialOrder.EQUAL and drop_equal:
                dominated = True
            if relation is not PartialOrder.GREATER:
                survivors.append(pair)
        if not dominated:
            survivors.append((plan, result))
        kept = survivors
    return kept


@st.composite
def touching_interval_lists(draw):
    """Bounds from five values, so points, shared endpoints and exact
    duplicates — the cases the four comparisons differ on — are common."""
    grid = st.sampled_from([0.0, 1.0, 2.5, 2.5000000000000004, 7.0])
    pairs = draw(st.lists(st.tuples(grid, grid), min_size=1, max_size=10))
    return [Interval(min(pair), max(pair)) for pair in pairs]


class TestInlineComparisonMatchesCompareCosts:
    @settings(max_examples=150, deadline=None)
    @given(
        intervals=st.one_of(interval_lists(), touching_interval_lists()),
        keep_equal=st.booleans(),
        static=st.booleans(),
    )
    def test_same_survivors_in_the_same_order(self, intervals, keep_equal,
                                              static):
        make_config = OptimizerConfig.static if static else OptimizerConfig.dynamic
        engine = make_engine(make_config(keep_equal_cost_plans=keep_equal))
        candidates = candidates_from(intervals)
        expected = prune_with_compare_costs(
            candidates, drop_equal=static or not keep_equal
        )
        kept = engine._prune(candidates)
        assert [id(plan) for plan, _ in kept] == [
            id(plan) for plan, _ in expected
        ]
        assert engine.stats.pruned_by_dominance == len(candidates) - len(kept)


class TestStaticPruning:
    @settings(max_examples=60, deadline=None)
    @given(points=st.lists(st.floats(0, 100, allow_nan=False),
                           min_size=1, max_size=10))
    def test_static_mode_keeps_single_cheapest(self, points):
        engine = make_engine(OptimizerConfig.static())
        intervals = [Interval.point(value) for value in points]
        kept = engine._prune(candidates_from(intervals))
        entry = engine._finalize(kept)
        assert entry is not None
        assert entry.cost.lower == pytest.approx(min(points))
        assert len(entry.alternatives) == 1


class TestExhaustivePruning:
    @settings(max_examples=40, deadline=None)
    @given(intervals=interval_lists())
    def test_exhaustive_mode_keeps_all_distinct_costs(self, intervals):
        engine = make_engine(OptimizerConfig.exhaustive())
        kept = engine._prune(candidates_from(intervals))
        # Only exactly-equal point costs may collapse; everything else
        # is incomparable by definition in exhaustive mode.
        distinct = {
            (interval.lower, interval.upper) for interval in intervals
        }
        assert len(kept) >= len(distinct)

