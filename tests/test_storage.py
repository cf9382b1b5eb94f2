"""Heap files, records, I/O accounting, and the Database container."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import Attribute, Schema
from repro.catalog import (
    AttributeStatistics,
    Catalog,
    IndexInfo,
    RelationStatistics,
)
from repro.common.errors import CatalogError, ExecutionError
from repro.resilience.faults import FaultInjector, FaultProfile
from repro.storage import Database, HeapFile, IOStatistics, Record
from repro.storage.records import Layout


def make_heap(records_per_page=4):
    schema = Schema("R", [Attribute("a"), Attribute("b")])
    stats = IOStatistics()
    return HeapFile(schema, stats, records_per_page), stats


class TestRecord:
    def test_qualified_and_unqualified_access(self):
        record = Record({"R.a": 1, "R.b": 2})
        assert record["R.a"] == 1
        assert record["a"] == 1
        assert record.get("zzz") is None

    def test_ambiguous_reference_raises(self):
        record = Record({"R.a": 1, "S.a": 2})
        with pytest.raises(ExecutionError):
            record["a"]

    def test_missing_field_raises(self):
        with pytest.raises(ExecutionError):
            Record({"R.a": 1})["b"]

    def test_contains(self):
        record = Record({"R.a": 1})
        assert "a" in record
        assert "R.a" in record
        assert "b" not in record

    def test_merged_with(self):
        left = Record({"R.a": 1})
        right = Record({"S.b": 2})
        merged = left.merged_with(right)
        assert merged["R.a"] == 1 and merged["S.b"] == 2

    def test_project(self):
        record = Record({"R.a": 1, "R.b": 2})
        assert record.project(["R.a"]).as_dict() == {"R.a": 1}

    def test_equality_and_hash(self):
        assert Record({"R.a": 1}) == Record({"R.a": 1})
        assert len({Record({"R.a": 1}), Record({"R.a": 1})}) == 1


#: Qualified and bare names over two relations: merges overlap, and a
#: bare lookup can be unique, missing or ambiguous.
FIELD_NAMES = ("R.a", "R.b", "S.a", "S.c", "a", "b", "c", "d")
FIELDS = st.dictionaries(st.sampled_from(FIELD_NAMES), st.integers(-3, 3), max_size=5)


def _dict_lookup(fields, name):
    """Indexing of the dict-per-row record this one replaced: the exact
    key, else the unique suffix match (either side unqualified)."""
    if name in fields:
        return fields[name]
    matches = [
        value
        for key, value in fields.items()
        if key.endswith("." + name) or name.endswith("." + key)
    ]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise ExecutionError(
            "record has no field %r (fields: %s)" % (name, sorted(fields))
        )
    raise ExecutionError("field reference %r is ambiguous" % name)


def _outcome(function):
    """``("value", result)`` or ``("error", message)``."""
    try:
        return ("value", function())
    except ExecutionError as error:
        return ("error", str(error))


class TestRecordMatchesTheDictReference:
    """A values tuple over a shared layout behaves as the dict it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(left=FIELDS, right=FIELDS)
    def test_merged_with_is_the_dict_merge(self, left, right):
        expected = {**left, **right}  # left's order, then right's; right wins
        merged = Record(left).merged_with(Record(right))
        assert list(merged.as_dict().items()) == list(expected.items())
        assert list(merged.keys()) == list(expected)
        assert merged == Record(expected) == Record(dict(reversed(expected.items())))
        assert hash(merged) == hash(tuple(sorted(expected.items())))
        assert repr(merged) == "Record(%s)" % ", ".join(
            "%s=%r" % (key, expected[key]) for key in sorted(expected)
        )
        # Records on shared layouts merge onto one memoized layout object.
        left_layout, right_layout = Layout(left), Layout(right)
        pairs = [
            (left_layout.record(left.values()), right_layout.record(right.values()))
            for _ in range(2)
        ]
        first, second = (a.merged_with(b) for a, b in pairs)
        assert first._layout is second._layout
        assert list(first.as_dict().items()) == list(expected.items())

    @settings(max_examples=200, deadline=None)
    @given(fields=FIELDS, names=st.lists(st.sampled_from(FIELD_NAMES), max_size=5))
    def test_lookup_and_project_match_the_dict_reference(self, fields, names):
        record = Record(fields)
        for name in FIELD_NAMES:
            expected = _outcome(lambda: _dict_lookup(fields, name))
            assert _outcome(lambda: record[name]) == expected
            assert (name in record) == (expected[0] == "value")
            assert record.get(name, "absent") == (
                expected[1] if expected[0] == "value" else "absent"
            )
        expected = _outcome(
            lambda: list({name: _dict_lookup(fields, name) for name in names}.items())
        )
        assert _outcome(lambda: list(record.project(names).as_dict().items())) == (
            expected
        )


class TestHeapFile:
    def test_insert_qualifies_fields(self):
        heap, _ = make_heap()
        rid = heap.insert({"a": 1, "b": 2})
        record = heap.fetch(rid)
        assert record["R.a"] == 1

    def test_insert_accepts_qualified_fields(self):
        heap, _ = make_heap()
        rid = heap.insert({"R.a": 1, "R.b": 2})
        assert heap.fetch(rid)["b"] == 2

    def test_missing_field_rejected(self):
        heap, _ = make_heap()
        with pytest.raises(ExecutionError):
            heap.insert({"a": 1})

    def test_page_packing(self):
        heap, _ = make_heap(records_per_page=4)
        heap.bulk_load({"a": i, "b": i} for i in range(9))
        assert heap.page_count == 3
        assert heap.record_count == 9
        assert len(heap) == 9

    def test_scan_charges_one_read_per_page(self):
        heap, stats = make_heap(records_per_page=4)
        heap.bulk_load({"a": i, "b": i} for i in range(8))
        stats.reset()
        records = list(heap.scan())
        assert len(records) == 8
        assert stats.pages_read == 2
        assert stats.records_processed == 8

    def test_fetch_charges_one_read_per_record(self):
        heap, stats = make_heap()
        rids = heap.bulk_load({"a": i, "b": i} for i in range(8))
        stats.reset()
        for rid in rids:
            heap.fetch(rid)
        assert stats.pages_read == 8  # unclustered-fetch behaviour

    def test_fetch_invalid_rid(self):
        heap, _ = make_heap()
        with pytest.raises(ExecutionError):
            heap.fetch((99, 0))

    def test_records_share_the_heap_layout(self):
        heap, _ = make_heap()
        heap.bulk_load([{"a": 1, "b": 2}, {"R.a": 3, "b": 4}])
        heap.insert({"b": 6, "a": 5})
        records = heap.all_records()
        assert all(record._layout is heap.layout for record in records)
        assert [record.as_dict() for record in records] == [
            {"R.a": 1, "R.b": 2},
            {"R.a": 3, "R.b": 4},
            {"R.a": 5, "R.b": 6},
        ]

    def test_scan_preserves_insertion_order(self):
        heap, _ = make_heap()
        heap.bulk_load({"a": i, "b": 0} for i in range(10))
        assert [r["a"] for r in heap.scan()] == list(range(10))

    @pytest.mark.parametrize("injected", (False, True), ids=("plain", "injected"))
    @pytest.mark.parametrize("batch_size", (1, 3, 4, 5, 1023, 1024, 1025))
    def test_scan_batches_are_page_aligned_slices_of_the_scan(
        self, batch_size, injected
    ):
        """Every batch but the last holds ``ceil(batch_size / 4)`` whole
        pages; the batches concatenate to :meth:`HeapFile.scan` and are
        charged what it charges — page reads, record charges and the
        fault injector's ``heap_read`` operations.  The last page is
        partial, then full after an insert, then partial again."""
        heap, stats = make_heap(records_per_page=4)
        heap.bulk_load({"a": i, "b": -i} for i in range(4 * 300 + 3))

        def charged(scan):
            stats.reset()
            if injected:
                heap.fault_injector = FaultInjector(FaultProfile("none"))
            rows = scan()
            heap_reads = (
                heap.fault_injector.site_operations["heap_read"] if injected else None
            )
            return rows, (stats.pages_read, stats.records_processed, heap_reads)

        step = -(-batch_size // 4) * 4
        for _ in range(3):
            records, scanned = charged(lambda: list(heap.scan()))
            batches, batched = charged(lambda: list(heap.scan_batches(batch_size)))
            assert [len(batch) for batch in batches[:-1]] == [step] * (
                len(batches) - 1
            )
            assert 0 < len(batches[-1]) <= step
            assert [row for batch in batches for row in batch] == [
                record._values for record in records
            ]
            assert batched == scanned
            assert scanned[:2] == (heap.page_count, heap.record_count)
            heap.insert({"a": -1, "b": 1})

    def test_zero_records_per_page_rejected(self):
        schema = Schema("R", [Attribute("a")])
        with pytest.raises(ExecutionError):
            HeapFile(schema, IOStatistics(), records_per_page=0)


class TestIOStatistics:
    def test_counters_accumulate(self):
        stats = IOStatistics()
        stats.charge_page_reads(2)
        stats.charge_page_writes(1)
        stats.charge_records(5)
        stats.charge_index_probe()
        assert stats.total_pages == 3
        assert stats.snapshot() == {
            "pages_read": 2,
            "pages_written": 1,
            "records_processed": 5,
            "index_probes": 1,
        }

    def test_reset(self):
        stats = IOStatistics()
        stats.charge_page_reads(3)
        stats.reset()
        assert stats.pages_read == 0

    def test_estimated_seconds_positive(self):
        stats = IOStatistics()
        stats.charge_page_reads(100)
        assert stats.estimated_seconds() == pytest.approx(1.0)


class TestDatabase:
    def _catalog(self):
        catalog = Catalog()
        schema = Schema("R", [Attribute("a"), Attribute("b")])
        stats = RelationStatistics(
            "R", 8, [AttributeStatistics("a", 8), AttributeStatistics("b", 4)]
        )
        catalog.add_relation(schema, stats)
        catalog.add_index(IndexInfo("R", "a"))
        return catalog

    def test_load_maintains_indexes(self):
        database = Database(self._catalog())
        database.load("R", [{"a": i, "b": i % 4} for i in range(8)])
        btree = database.btree("R", "a")
        assert btree.entry_count == 8
        assert database.has_btree("R", "a")
        assert not database.has_btree("R", "b")

    def test_btree_lookup_accepts_qualified_name(self):
        database = Database(self._catalog())
        database.load("R", [{"a": 1, "b": 1}])
        assert database.btree("R", "R.a") is database.btree("R", "a")

    def test_missing_relation_raises(self):
        database = Database(self._catalog())
        with pytest.raises(ExecutionError):
            database.heap("R")  # no data loaded yet

    def test_double_create_rejected(self):
        database = Database(self._catalog())
        database.create_relation("R")
        with pytest.raises(CatalogError):
            database.create_relation("R")

    def test_index_search_finds_inserted_rids(self):
        database = Database(self._catalog())
        database.load("R", [{"a": i % 4, "b": 0} for i in range(8)])
        btree = database.btree("R", "a")
        rids = btree.search(2)
        heap = database.heap("R")
        for rid in rids:
            assert heap.fetch(rid)["a"] == 2
        assert len(rids) == 2

    def test_relation_names(self):
        database = Database(self._catalog())
        database.load("R", [{"a": 0, "b": 0}])
        assert database.relation_names() == ["R"]
