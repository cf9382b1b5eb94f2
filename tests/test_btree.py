"""The B+-tree: structure, search, range scans, and invariants."""

import operator

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.errors import ExecutionError
from repro.storage import BTree, IOStatistics


def make_tree(fan_out=4):
    return BTree("a", IOStatistics(), fan_out=fan_out)


class TestBasics:
    def test_empty_tree(self):
        tree = make_tree()
        assert tree.entry_count == 0
        assert tree.height == 1
        assert tree.search(5) == []
        assert list(tree.range_scan()) == []

    def test_insert_and_search(self):
        tree = make_tree()
        tree.insert(5, (0, 0))
        assert tree.search(5) == [(0, 0)]
        assert tree.search(6) == []

    def test_duplicates_accumulate(self):
        tree = make_tree()
        tree.insert(5, (0, 0))
        tree.insert(5, (0, 1))
        assert sorted(tree.search(5)) == [(0, 0), (0, 1)]
        assert tree.entry_count == 2

    def test_small_fanout_rejected(self):
        with pytest.raises(ExecutionError):
            BTree("a", IOStatistics(), fan_out=2)


class TestSplitsAndHeight:
    def test_height_grows_with_inserts(self):
        tree = make_tree(fan_out=4)
        for i in range(100):
            tree.insert(i, (i, 0))
        assert tree.height >= 3
        tree.check_invariants()

    def test_reverse_order_inserts(self):
        tree = make_tree(fan_out=4)
        for i in reversed(range(50)):
            tree.insert(i, (i, 0))
        tree.check_invariants()
        assert tree.keys_in_order() == list(range(50))

    def test_leaf_count_tracks_entries(self):
        tree = make_tree(fan_out=4)
        for i in range(64):
            tree.insert(i, (i, 0))
        assert tree.leaf_count() >= 64 // 4


class TestRangeScan:
    def _loaded(self):
        tree = make_tree(fan_out=4)
        for i in range(20):
            tree.insert(i, (i, 0))
        return tree

    def test_full_scan_in_order(self):
        tree = self._loaded()
        keys = [key for key, _rid in tree.range_scan()]
        assert keys == list(range(20))

    def test_bounded_scan_inclusive(self):
        tree = self._loaded()
        keys = [key for key, _ in tree.range_scan(5, 10)]
        assert keys == [5, 6, 7, 8, 9, 10]

    def test_open_lower_bound(self):
        tree = self._loaded()
        keys = [key for key, _ in tree.range_scan(None, 3)]
        assert keys == [0, 1, 2, 3]

    def test_open_upper_bound(self):
        tree = self._loaded()
        keys = [key for key, _ in tree.range_scan(17, None)]
        assert keys == [17, 18, 19]

    def test_empty_range(self):
        tree = self._loaded()
        assert list(tree.range_scan(50, 60)) == []

    def test_range_with_duplicates(self):
        tree = make_tree()
        for i in range(10):
            tree.insert(i % 3, (i, 0))
        values = [key for key, _ in tree.range_scan(1, 1)]
        assert values == [1, 1, 1]


class TestIOAccounting:
    def test_search_charges_probe_and_descent(self):
        stats = IOStatistics()
        tree = BTree("a", stats, fan_out=4)
        for i in range(100):
            tree.insert(i, (i, 0))
        stats.reset()
        tree.search(42)
        assert stats.index_probes == 1
        assert stats.pages_read == tree.height

    def test_range_scan_charges_leaf_chain(self):
        stats = IOStatistics()
        tree = BTree("a", stats, fan_out=4)
        for i in range(40):
            tree.insert(i, (i, 0))
        stats.reset()
        list(tree.range_scan())
        # Descent plus one read per additional leaf.
        assert stats.pages_read >= tree.leaf_count()


@st.composite
def key_lists(draw):
    return draw(st.lists(st.integers(min_value=-1000, max_value=1000),
                         min_size=0, max_size=200))


class TestPropertyBased:
    @settings(max_examples=50, deadline=None)
    @given(key_lists())
    def test_invariants_after_random_inserts(self, keys):
        tree = make_tree(fan_out=4)
        for position, key in enumerate(keys):
            tree.insert(key, (position, 0))
        tree.check_invariants()

    @settings(max_examples=50, deadline=None)
    @given(key_lists())
    def test_scan_equals_sorted_input(self, keys):
        tree = make_tree(fan_out=5)
        for position, key in enumerate(keys):
            tree.insert(key, (position, 0))
        scanned = [key for key, _ in tree.range_scan()]
        assert scanned == sorted(keys)

    @settings(max_examples=50, deadline=None)
    @given(key_lists(), st.integers(-1000, 1000))
    def test_search_agrees_with_brute_force(self, keys, probe):
        tree = make_tree(fan_out=4)
        for position, key in enumerate(keys):
            tree.insert(key, (position, 0))
        expected = sorted(
            (position, 0) for position, key in enumerate(keys) if key == probe
        )
        assert sorted(tree.search(probe)) == expected

    @settings(max_examples=30, deadline=None)
    @given(key_lists(), st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_range_scan_agrees_with_brute_force(self, keys, a, b):
        low, high = min(a, b), max(a, b)
        tree = make_tree(fan_out=4)
        for position, key in enumerate(keys):
            tree.insert(key, (position, 0))
        expected = sorted(key for key in keys if low <= key <= high)
        scanned = [key for key, _ in tree.range_scan(low, high)]
        assert scanned == expected


#: ``count_range`` arguments and the test of each comparison with ``v``.
COMPARISONS = {
    "<": (lambda v: (None, v, False), operator.lt),
    "<=": (lambda v: (None, v, True), operator.le),
    ">": (lambda v: (v, None, False), operator.gt),
    ">=": (lambda v: (v, None, True), operator.ge),
    "=": (lambda v: (v, v, True), operator.eq),
}


def _charged(stats, before):
    return {key: value - before[key] for key, value in stats.snapshot().items()}


def _scan_io(tree, low, high):
    """What draining ``range_scan(low, high)`` charges."""
    before = tree.io_stats.snapshot()
    for _ in tree.range_scan(low, high):
        pass
    return _charged(tree.io_stats, before)


class TestCountRange:
    """Index-only counts: exact, and charged for the shorter walk."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(0, 60), max_size=300),
        st.sampled_from((4, 8, 32)),
        st.sampled_from(sorted(COMPARISONS)),
        st.one_of(st.integers(-2, 62), st.floats(-2.0, 62.0)),
    )
    @example([], 4, "<", 0)
    @example([], 32, ">=", 0)
    @example([3, 3, 5], 8, ">", 3)
    @example([3, 3, 5], 8, "<=", 3)
    def test_count_is_exact_and_walks_the_shorter_side(self, keys, fan_out, op, value):
        tree = make_tree(fan_out=fan_out)
        for position, key in enumerate(keys):
            tree.insert(key, (position, 0))
        arguments, compare = COMPARISONS[op]
        low, high, inclusive = arguments(value)

        before = tree.io_stats.snapshot()
        count = tree.count_range(low, high, inclusive)
        probed = _charged(tree.io_stats, before)

        assert count == sum(compare(key, value) for key in keys)
        walks = [_scan_io(tree, low, high)]
        if op != "=":  # a half-open range may walk its complement
            walks.append(_scan_io(tree, high, low))
        # One probe, no record, the pages of the shorter walk.
        assert probed == min(walks, key=operator.itemgetter("pages_read"))

    def test_a_count_near_the_top_walks_the_complement(self):
        tree = make_tree(fan_out=4)
        for key in range(1000):
            tree.insert(key, (key, 0))
        stats = tree.io_stats
        before = stats.snapshot()
        assert tree.count_range(None, 990) == 991
        probed = _charged(stats, before)
        assert probed == _scan_io(tree, 990, None)
        assert probed["pages_read"] < _scan_io(tree, None, 990)["pages_read"] / 10

    def test_an_insert_moves_the_leaf_ordinals(self):
        tree = make_tree(fan_out=4)
        for key in range(100):
            tree.insert(key, (key, 0))
        assert tree.count_range(90, None) == 10
        for key in range(100, 200):
            tree.insert(key, (key, 0))
        before = tree.io_stats.snapshot()
        assert tree.count_range(90, None) == 110
        probed = _charged(tree.io_stats, before)
        assert probed == min(
            _scan_io(tree, 90, None),
            _scan_io(tree, None, 90),
            key=operator.itemgetter("pages_read"),
        )
