"""Heap files: unordered record storage in fixed-size pages.

Each relation's records are packed four to a 2 KB page (512-byte
records).  A sequential scan charges one page read per page touched;
fetching a single record by RID charges one page read — this is the
behaviour that makes unclustered index scans expensive at high
selectivity, the effect at the heart of the paper's motivating
example.

A heap stores one flat list of value tuples.  Pages are appended full
and only the last page is ever partial, so page ``p`` is the slice
``[p * records_per_page, (p + 1) * records_per_page)`` and a
page-aligned batch is one slice of the list.  The engine moves those
tuples; :meth:`HeapFile.scan`, :meth:`HeapFile.fetch` and
:meth:`HeapFile.all_records` build :class:`~repro.storage.records.Record`
objects on the heap's layout on demand.

The heap's layout also carries the positions whose stored values are
all exact ints (:attr:`~repro.storage.records.Layout.integral`).
:meth:`HeapFile.bulk_load` is the one write path, so it keeps that set:
every position starts in it, and a load can only take positions out.
"""

from repro.common.errors import ExecutionError
from repro.common.units import RECORDS_PER_PAGE
from repro.storage.records import Layout


class HeapFile:
    """Paged heap storage for the records of one relation."""

    def __init__(self, schema, io_stats, records_per_page=RECORDS_PER_PAGE,
                 fault_injector=None):
        if records_per_page <= 0:
            raise ExecutionError("records_per_page must be positive")
        self.schema = schema
        self.io_stats = io_stats
        self.records_per_page = records_per_page
        #: Optional :class:`~repro.resilience.faults.FaultInjector`;
        #: consulted before every simulated device access, so an
        #: injected fault aborts the operation before its I/O charge.
        self.fault_injector = fault_injector
        self._attribute_names = tuple(attribute.name for attribute in schema)
        #: The :class:`~repro.storage.records.Layout` every stored
        #: values tuple of the relation is read through: its qualified
        #: attribute names.
        self.layout = Layout(schema.qualified_names())
        self.layout.integral = frozenset(range(len(self.layout.names)))
        #: Every stored values tuple, in RID order (see the module doc).
        self._rows = []

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def insert(self, fields):
        """Append a record; returns its RID ``(page, slot)``.

        Accepts unqualified field names and qualifies them with the
        relation name so that downstream operators always see
        ``relation.attribute`` keys.
        """
        return self.bulk_load((fields,))[0]

    def bulk_load(self, rows):
        """Insert many rows; returns the RIDs in insertion order.

        Each row's values, in schema order, are stored as one tuple
        read through the heap's :attr:`layout`.  A position at which a
        loaded value is not an exact ``int`` leaves the layout's
        :attr:`~repro.storage.records.Layout.integral` set.
        """
        names = self._attribute_names
        stored = self._rows
        per_page = self.records_per_page
        first = len(stored)
        rids = []
        try:
            for fields in rows:
                try:
                    values = tuple([fields[name] for name in names])
                except KeyError:
                    values = self._qualified_values(fields)
                page, slot = divmod(len(stored), per_page)
                if slot == 0:
                    if self.fault_injector is not None:
                        self.fault_injector.record("heap_write")
                    self.io_stats.charge_page_writes(1)
                stored.append(values)
                rids.append((page, slot))
        finally:
            # Also after a load that failed part-way: what it stored stays.
            self._narrow_integral(stored[first:])
        return rids

    def _narrow_integral(self, loaded):
        """Drop from the layout's integral set every position at which a
        tuple of ``loaded`` holds anything but an exact ``int``."""
        self.layout.integral = frozenset(
            i
            for i in self.layout.integral
            if all(type(t[i]) is int for t in loaded)
        )

    def _qualified_values(self, fields):
        """A row's values in schema order, each field given bare or
        qualified with the relation name."""
        values = []
        for name, qualified_name in zip(self._attribute_names, self.layout.names):
            if name in fields:
                values.append(fields[name])
            elif qualified_name in fields:
                values.append(fields[qualified_name])
            else:
                raise ExecutionError(
                    "missing field %r when inserting into %r"
                    % (name, self.schema.relation_name)
                )
        return tuple(values)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    @property
    def page_count(self):
        """Number of allocated pages."""
        return -(-len(self._rows) // self.records_per_page)

    @property
    def record_count(self):
        """Total records stored."""
        return len(self._rows)

    def _index(self, rid):
        """The position of ``rid``'s values in :attr:`_rows`."""
        page_number, slot = rid
        index = page_number * self.records_per_page + slot
        if not (0 <= slot < self.records_per_page and 0 <= index < len(self._rows)):
            raise ExecutionError("invalid RID %r" % (rid,))
        return index

    def scan(self, buffer_pool=None):
        """Yield every record, charging one page read per page.

        With a ``buffer_pool``, resident pages cost no I/O (the pool is
        touched so the scan competes for frames like any access).
        """
        record = self.layout.record
        rows = self._rows
        per_page = self.records_per_page
        for page_number, start in enumerate(range(0, len(rows), per_page)):
            if buffer_pool is None or not buffer_pool.access(
                (self.schema.relation_name, page_number)
            ):
                if self.fault_injector is not None:
                    self.fault_injector.record("heap_read")
                self.io_stats.charge_page_reads(1)
            for slot, values in enumerate(rows[start : start + per_page]):
                self.io_stats.charge_records(1)
                yield record(values, (page_number, slot))

    def scan_batches(self, batch_size, buffer_pool=None):
        """Yield page-aligned batches of value tuples, charging per page.

        The batch path of :meth:`scan`: identical page-read and record
        charges (one page read per page touched, one record charge per
        record), but each batch is one slice of the stored tuples
        holding whole pages — ``ceil(batch_size / records_per_page)``
        of them, as every page but the last is full — charged in bulk.
        The final batch may be smaller.
        """
        if batch_size < 1:
            raise ExecutionError("batch_size must be at least 1")
        rows = self._rows
        per_page = self.records_per_page
        step = -(-batch_size // per_page) * per_page
        injector = self.fault_injector
        io_stats = self.io_stats
        relation = self.schema.relation_name
        for start in range(0, len(rows), step):
            batch = rows[start : start + step]
            first_page = start // per_page
            touched = -(-len(batch) // per_page)
            if buffer_pool is None:
                # No pool: every page is a miss, charged in bulk.
                if injector is not None:
                    injector.record("heap_read", touched)
                io_stats.charge_page_reads(touched)
            else:
                for page_number in range(first_page, first_page + touched):
                    if not buffer_pool.access((relation, page_number)):
                        if injector is not None:
                            injector.record("heap_read")
                        io_stats.charge_page_reads(1)
            io_stats.charge_records(len(batch))
            yield batch

    def fetch(self, rid, buffer_pool=None):
        """Fetch one record by RID, charging one page read on a miss.

        This models the unclustered-index record fetch: each qualifying
        RID costs a page access because neighbouring qualifying records
        rarely share pages — unless an LRU ``buffer_pool`` still holds
        the page ([MaL89]'s refinement).
        """
        return self.layout.record(self._fetch_values(rid, buffer_pool), rid)

    def _fetch_values(self, rid, buffer_pool):
        """:meth:`fetch`'s charges, returning the stored values tuple."""
        values = self._rows[self._index(rid)]
        if buffer_pool is None or not buffer_pool.access(
            (self.schema.relation_name, rid[0])
        ):
            if self.fault_injector is not None:
                self.fault_injector.record("heap_read")
            self.io_stats.charge_page_reads(1)
        self.io_stats.charge_records(1)
        return values

    def fetch_many(self, rids, buffer_pool=None):
        """Value tuples of several RIDs, with the charges of :meth:`fetch`.

        The batch path of :meth:`fetch`: the same one-page-read-per-RID
        and one-record-per-RID accounting, but charged in bulk when no
        buffer pool is attached (every fetch is a miss, so the totals
        are position-independent).  With a pool every RID is one
        access, in order — but a shared pool also sees the other
        operators' accesses, and how those interleave with this call's
        depends on the batch size, so pooled ``pages_read`` is not the
        same at every batch size (never above the unpooled count).

        The RIDs are the heap's own, as its B-trees hand them out: the
        bulk path checks only that each lands inside the heap, where
        :meth:`fetch` also rejects a slot past the end of its page.
        """
        if buffer_pool is not None:
            return [self._fetch_values(rid, buffer_pool) for rid in rids]
        rows = self._rows
        per_page = self.records_per_page
        try:
            values = [rows[page * per_page + slot] for page, slot in rids]
        except IndexError:
            for rid in rids:
                self._index(rid)  # raises on the offending RID
            raise
        if self.fault_injector is not None:
            self.fault_injector.record("heap_read", len(values))
        self.io_stats.charge_page_reads(len(values))
        self.io_stats.charge_records(len(values))
        return values

    def all_records(self):
        """All records without charging I/O (catalog/loader internals)."""
        record = self.layout.record
        per_page = self.records_per_page
        return [
            record(values, divmod(index, per_page))
            for index, values in enumerate(self._rows)
        ]

    def __len__(self):
        return self.record_count

    def __repr__(self):
        return "HeapFile(%r, %d records, %d pages)" % (
            self.schema.relation_name,
            self.record_count,
            self.page_count,
        )
