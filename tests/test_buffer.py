"""The LRU buffer pool and the [MaL89] buffer-aware cost refinement."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.physical import (
    BTreeScan,
    FileScan,
    Filter,
    FilterBTreeScan,
    IndexJoin,
)
from repro.cost.formulas import CostModel, lru_page_faults
from repro.cost.parameters import Bindings, Valuation
from repro.executor import execute_plan
from repro.storage import BufferPool
from repro.workloads import random_bindings


class TestBufferPool:
    def test_miss_then_hit(self):
        pool = BufferPool(4)
        assert pool.access(("R", 0)) is False
        assert pool.access(("R", 0)) is True
        assert pool.hits == 1 and pool.misses == 1

    def test_lru_eviction_order(self):
        pool = BufferPool(2)
        pool.access(("R", 0))
        pool.access(("R", 1))
        pool.access(("R", 0))  # touch 0, so 1 is the LRU victim
        pool.access(("R", 2))  # evicts 1
        assert pool.contains(("R", 0))
        assert not pool.contains(("R", 1))
        assert pool.contains(("R", 2))
        assert pool.evictions == 1

    def test_capacity_respected(self):
        pool = BufferPool(3)
        for page in range(10):
            pool.access(("R", page))
        assert pool.resident_pages == 3

    def test_hit_rate(self):
        pool = BufferPool(10)
        pool.access(("R", 0))
        pool.access(("R", 0))
        pool.access(("R", 0))
        assert pool.hit_rate == pytest.approx(2 / 3)
        pool.clear()
        assert pool.hit_rate == 0.0
        assert pool.resident_pages == 0

    def test_minimum_capacity(self):
        with pytest.raises(ValueError):
            BufferPool(0)


class TestLruFaultFormula:
    def test_zero_records(self):
        assert lru_page_faults(0, 100, 10) == 0.0

    def test_everything_fits(self):
        # Buffer larger than the file: only distinct pages fault.
        faults = lru_page_faults(1000, 50, 64)
        assert faults <= 50

    def test_naive_upper_bound(self):
        # Never more faults than accesses.
        for k in (1, 10, 100, 1000):
            assert lru_page_faults(k, 250, 16) <= k + 1e-9

    def test_monotone_in_records(self):
        previous = 0.0
        for k in (1, 10, 100, 500, 2000):
            faults = lru_page_faults(k, 250, 16)
            assert faults >= previous - 1e-9
            previous = faults

    def test_antimonotone_in_buffer(self):
        # 25.5 fetches over 25 pages: less than one access past the
        # point where 16 buffer pages fill, the estimate without its
        # floor at the distinct pages touched grew with the buffer.
        for records, pages in ((500, 250), (25.5, 25)):
            previous = float("inf")
            for buffer_pages in (4, 16, 64, 128, 250):
                faults = lru_page_faults(records, pages, buffer_pages)
                assert faults <= previous + 1e-9
                previous = faults

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(0, 5000),
        pages=st.integers(1, 500),
        buffer_pages=st.integers(1, 500),
    )
    def test_bounds_property(self, k, pages, buffer_pages):
        faults = lru_page_faults(k, pages, buffer_pages)
        # Never negative, never more than one fault per access, and at
        # least one fault for the first access to a non-empty file.
        assert 0.0 <= faults <= k + 1e-9
        if k > 0:
            assert faults >= 1.0 - 1e-9


class TestBufferAwareCostModel:
    def test_buffer_aware_never_costs_more(self, workload2):
        """Every unclustered fetch: a filtered and a full index scan, and
        an index join's inner records."""
        space = workload2.query.parameter_space
        bindings = Bindings().bind("sel_R1", 0.8).bind("sel_R2", 0.8)
        selection = workload2.query.selection_for("R1")
        join = workload2.query.join_predicates[0]
        inner, attribute = join.right_attribute.split(".")
        for plan in (
            FilterBTreeScan("R1", "a", selection),
            BTreeScan("R1", "a"),
            IndexJoin(
                Filter(FileScan("R1"), selection), inner, attribute, join
            ),
        ):
            naive = CostModel(
                workload2.catalog, Valuation.runtime(space, bindings)
            ).evaluate(plan).cost.lower
            aware = CostModel(
                workload2.catalog,
                Valuation.runtime(space, bindings),
                buffer_aware=True,
            ).evaluate(plan).cost.lower
            assert aware < naive

    def test_buffer_awareness_matters_at_high_selectivity(self, workload1):
        # At selectivity near 1 the naive model charges one fault per
        # record (550 here) while the pages number only ~138.
        space = workload1.query.parameter_space
        bindings = Bindings().bind("sel_R1", 1.0)
        plan = FilterBTreeScan(
            "R1", "a", workload1.query.selection_for("R1")
        )
        naive = CostModel(
            workload1.catalog, Valuation.runtime(space, bindings)
        ).evaluate(plan).cost.lower
        aware = CostModel(
            workload1.catalog,
            Valuation.runtime(space, bindings),
            buffer_aware=True,
        ).evaluate(plan).cost.lower
        assert aware < naive * 0.75

    def test_prediction_tracks_buffered_execution(self, workload1,
                                                  database1):
        """The refined model must predict the pooled execution's page
        reads better than the naive model does."""
        from repro.common.units import IO_TIME_PER_PAGE

        predicate = workload1.query.selection_for("R1")
        space = workload1.query.parameter_space
        domain = workload1.catalog.domain_size("R1", "a")
        selectivity = 0.9
        bindings = random_bindings(workload1, seed=2)
        bindings.bind("sel_R1", selectivity)
        bindings.bind_variable("v_R1", selectivity * domain)
        plan = FilterBTreeScan("R1", "a", predicate)

        executed = execute_plan(
            plan, database1, bindings, space, use_buffer_pool=True
        )
        actual_fault_seconds = (
            executed.io_snapshot["pages_read"] * IO_TIME_PER_PAGE
        )
        naive = CostModel(
            workload1.catalog, Valuation.runtime(space, bindings)
        ).evaluate(plan).cost.lower
        aware = CostModel(
            workload1.catalog,
            Valuation.runtime(space, bindings),
            buffer_aware=True,
        ).evaluate(plan).cost.lower
        naive_error = abs(naive - actual_fault_seconds)
        aware_error = abs(aware - actual_fault_seconds)
        assert aware_error < naive_error

    def test_buffered_execution_reads_fewer_pages(self, workload1,
                                                  database1):
        predicate = workload1.query.selection_for("R1")
        space = workload1.query.parameter_space
        domain = workload1.catalog.domain_size("R1", "a")
        bindings = random_bindings(workload1, seed=2)
        bindings.bind("sel_R1", 0.9)
        bindings.bind_variable("v_R1", 0.9 * domain)
        plan = FilterBTreeScan("R1", "a", predicate)
        without_pool = execute_plan(plan, database1, bindings, space)
        with_pool = execute_plan(
            plan, database1, bindings, space, use_buffer_pool=True
        )
        assert (
            with_pool.io_snapshot["pages_read"]
            < without_pool.io_snapshot["pages_read"]
        )
        assert with_pool.row_count == without_pool.row_count

    def test_file_scan_unaffected(self, workload1):
        space = workload1.query.parameter_space
        bindings = Bindings().bind("sel_R1", 0.5)
        plan = Filter(FileScan("R1"), workload1.query.selection_for("R1"))
        naive = CostModel(
            workload1.catalog, Valuation.runtime(space, bindings)
        ).evaluate(plan).cost
        aware = CostModel(
            workload1.catalog,
            Valuation.runtime(space, bindings),
            buffer_aware=True,
        ).evaluate(plan).cost
        assert naive == aware
