"""Integer bounds for integer columns: exact kernels, the heap's
bookkeeping, and B-tree bounds left alone.

A filter kernel compiled over a heap's layout compares a column whose
stored values are all exact ints with an integer bound in place of
a finite float operand (``executor/predicates.py``).  These tests hold
the three things that make it safe: the rewritten kernels admit exactly
what the interpreted predicate admits, in order; only a heap's own
layout claims integral positions, and a load of anything but an
``int`` takes its position out; and the B-tree is still probed with the
unrounded operand, so index I/O does not move.
"""

import math
from itertools import compress

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.algebra.expressions import (
    Comparison,
    ComparisonOp,
    SelectionPredicate,
    UserVariable,
)
from repro.algebra.physical import FilterBTreeScan
from repro.catalog import (
    Attribute,
    AttributeStatistics,
    Catalog,
    IndexInfo,
    RelationStatistics,
    Schema,
)
from repro.common.errors import ExecutionError
from repro.cost.parameters import Bindings
from repro.executor.engine import execute_plan
from repro.executor.midquery import count_qualifying
from repro.executor.predicates import compile_batch_mask, compile_batch_predicate
from repro.executor.vectorized import sargable_key_range
from repro.storage import Database, HeapFile, IOStatistics
from repro.storage.records import Layout

#: Small and huge integers, negative included: a huge ``int`` is where a
#: float comparison and an integer one could part if either rounded.
INTEGERS = st.one_of(
    st.integers(-60, 60), st.integers(-(2**70), 2**70), st.sampled_from((2**53 + 1,))
)
#: Integral, non-integral and non-finite operands.
OPERANDS = st.one_of(
    st.integers(-61, 61).map(float),
    st.floats(-61.0, 61.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        (0.0, -0.0, 1e300, -1e300, math.inf, -math.inf, math.nan, 2.0**53, 5.5, -5.5)
    ),
)
#: One value that is not an exact ``int``: the column stays on the float path.
NOT_INT = st.sampled_from((2.5, 3.0, True, False, "7"))


def _heap(rows):
    """A heap ``R(a, b)`` holding ``rows`` (pairs), four to a page."""
    heap = HeapFile(Schema("R", [Attribute("a"), Attribute("b")]), IOStatistics(), 4)
    heap.bulk_load({"a": a, "b": b} for a, b in rows)
    return heap


def _outcome(function):
    """``("value", result)`` or ``("raises", exception type)``."""
    try:
        return ("value", function())
    except TypeError as error:
        return ("raises", type(error))


def _kernels_agree(heap, attribute, op, value):
    """Both kernels on ``heap``'s layout return what the interpreted
    predicate admits on the same tuples as records, in order."""
    predicate = SelectionPredicate(
        Comparison(attribute, op, UserVariable("v")), known_selectivity=0.5
    )
    bindings = Bindings().bind_variable("v", value)
    layout = heap.layout
    rows = heap._rows
    filter_batch = compile_batch_predicate(predicate, bindings, layout)
    mask_batch = compile_batch_mask(predicate, bindings, layout)
    qualifies = _outcome(
        lambda: [predicate.evaluate(record, bindings) for record in layout.records(rows)]
    )
    if qualifies[0] == "raises":
        assert _outcome(lambda: filter_batch(rows)) == qualifies
        assert _outcome(lambda: mask_batch(rows)) == qualifies
        return
    admitted = list(compress(rows, qualifies[1]))
    passed = filter_batch(rows)
    assert passed == admitted
    assert all(got is want for got, want in zip(passed, admitted))
    assert mask_batch(rows) == qualifies[1]


class TestKernelsAreExact:
    @settings(max_examples=400, deadline=None)
    @given(
        op=st.sampled_from(list(ComparisonOp)),
        column=st.lists(INTEGERS, max_size=40),
        value=OPERANDS,
    )
    @example(op=ComparisonOp.LT, column=[5, 6, -6, 2**53 + 1], value=5.5)
    @example(op=ComparisonOp.GT, column=[-1, 0, 1], value=-0.0)
    @example(op=ComparisonOp.EQ, column=[2**53, 2**53 + 1], value=2.0**53)
    @example(op=ComparisonOp.NE, column=[1, 2], value=math.nan)
    def test_an_integral_column_admits_what_the_predicate_admits(
        self, op, column, value
    ):
        heap = _heap((a, -a) for a in column)
        assert heap.layout.integral == {0, 1}  # the integer bound is in play
        _kernels_agree(heap, "R.a", op, value)
        _kernels_agree(heap, "b", op, value)

    @settings(max_examples=200, deadline=None)
    @given(
        op=st.sampled_from(list(ComparisonOp)),
        column=st.lists(INTEGERS, max_size=20),
        odd=NOT_INT,
        at=st.integers(0, 20),
        value=OPERANDS,
    )
    def test_a_column_holding_anything_else_stays_on_the_float_path(
        self, op, column, odd, at, value
    ):
        column.insert(min(at, len(column)), odd)
        heap = _heap((a, 0) for a in column)
        assert heap.layout.integral == {1}
        _kernels_agree(heap, "R.a", op, value)
        _kernels_agree(heap, "R.b", op, value)


class TestIntegralBookkeeping:
    def test_an_empty_heap_claims_every_position(self):
        assert _heap(()).layout.integral == {0, 1}

    def test_a_load_takes_out_only_the_position_it_breaks(self):
        heap = _heap([(1, 2), (3, 4)])
        assert heap.layout.integral == {0, 1}
        heap.bulk_load([{"a": 5, "b": 6}, {"a": 7, "b": 8.0}])
        assert heap.layout.integral == {0}
        heap.insert({"a": True, "b": 9})
        assert heap.layout.integral == frozenset()
        heap.insert({"a": 10, "b": 11})  # a load only ever shrinks the set
        assert heap.layout.integral == frozenset()

    @pytest.mark.parametrize("odd", (1.0, True, "1", None), ids=repr)
    def test_insert_of_a_non_int_removes_its_position(self, odd):
        heap = _heap([(1, 2)])
        heap.insert({"a": 3, "b": odd})
        assert heap.layout.integral == {0}

    def test_a_load_that_fails_part_way_still_accounts_what_it_stored(self):
        heap = _heap([(1, 2)])
        with pytest.raises(ExecutionError):
            heap.bulk_load([{"a": 1.5, "b": 2}, {"a": 3}])
        assert heap.record_count == 2
        assert heap.layout.integral == {1}

    def test_only_a_heaps_own_layout_claims_positions(self):
        left = _heap([(1, 2)]).layout
        right = HeapFile(
            Schema("S", [Attribute("a"), Attribute("c")]), IOStatistics()
        ).layout
        assert left.integral and right.integral
        assert left.merged(right)[0].integral == frozenset()
        assert left.merged(left)[0].integral == frozenset()  # a shared-name merge
        assert left.projected(["R.a"])[0].integral == frozenset()
        assert left.projected(["R.b", "R.a"])[0].integral == frozenset()
        assert Layout(("R.a", "R.b")).integral == frozenset()


class TestBTreeBoundsAreUnrounded:
    """``R.a < 5.5`` over int keys: the B-tree sees 5.5, not ``ceil(5.5)``
    (an inclusive ``high = 6`` would fetch key 6's records).  The pinned
    charges are those of the unrounded bound."""

    def _database(self):
        catalog = Catalog()
        catalog.add_relation(
            Schema("R", [Attribute("a"), Attribute("b")]),
            RelationStatistics(
                "R", 400, [AttributeStatistics("a", 40), AttributeStatistics("b", 400)]
            ),
        )
        catalog.add_index(IndexInfo("R", "a"))
        database = Database(catalog)
        database.load("R", [{"a": i % 40, "b": i} for i in range(400)])
        assert database.heap("R").layout.integral == {0, 1}
        return database

    def _charged(self, database, function):
        io_stats = database.io_stats
        before = io_stats.snapshot()
        out = function()
        return out, {key: io_stats.snapshot()[key] - before[key] for key in before}

    def test_range_scan_count_and_index_scan_charge_what_they_did(self):
        database = self._database()
        predicate = SelectionPredicate(
            Comparison("R.a", ComparisonOp.LT, UserVariable("v")),
            selectivity_parameter="s",
        )
        bindings = Bindings().bind_variable("v", 5.5)
        assert sargable_key_range(predicate, bindings) == (None, 5.5)
        probe = {"pages_read": 2, "pages_written": 0, "records_processed": 0,
                 "index_probes": 1}

        entries, scanned = self._charged(
            database,
            lambda: [key for key, _ in database.btree("R", "a").range_scan(None, 5.5)],
        )
        assert entries == sorted([key for key in range(6) for _ in range(10)])
        assert scanned == probe

        count, counted = self._charged(
            database, lambda: count_qualifying(database, predicate, bindings)
        )
        assert count == 60 and counted == probe

        result, executed = self._charged(
            database,
            lambda: execute_plan(FilterBTreeScan("R", "a", predicate), database, bindings),
        )
        assert result.row_count == 60
        assert executed == {"pages_read": 62, "pages_written": 0,
                            "records_processed": 60, "index_probes": 1}
