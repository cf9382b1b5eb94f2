"""Heap files: unordered record storage in fixed-size pages.

Each relation's records are packed four to a 2 KB page (512-byte
records).  A sequential scan charges one page read per page touched;
fetching a single record by RID charges one page read — this is the
behaviour that makes unclustered index scans expensive at high
selectivity, the effect at the heart of the paper's motivating
example.
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
        #: The :class:`~repro.storage.records.Layout` every stored record
        #: of the relation shares: its qualified attribute names.
        self.layout = Layout(schema.qualified_names())
        self._pages = []

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

        Each row's values, in schema order, become one record on the
        heap's :attr:`layout`.
        """
        layout = self.layout
        names = self._attribute_names
        pages = self._pages
        per_page = self.records_per_page
        rids = []
        for fields in rows:
            try:
                values = [fields[name] for name in names]
            except KeyError:
                values = self._qualified_values(fields)
            if not pages or len(pages[-1]) >= per_page:
                if self.fault_injector is not None:
                    self.fault_injector.record("heap_write")
                pages.append([])
                self.io_stats.charge_page_writes(1)
            page = pages[-1]
            rid = (len(pages) - 1, len(page))
            page.append(layout.record(values, rid))
            rids.append(rid)
        return rids

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
        return values

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    @property
    def page_count(self):
        """Number of allocated pages."""
        return len(self._pages)

    @property
    def record_count(self):
        """Total records stored."""
        return sum(len(page) for page in self._pages)

    def scan(self, buffer_pool=None):
        """Yield every record, charging one page read per page.

        With a ``buffer_pool``, resident pages cost no I/O (the pool is
        touched so the scan competes for frames like any access).
        """
        for page_number, page in enumerate(self._pages):
            if buffer_pool is None or not buffer_pool.access(
                (self.schema.relation_name, page_number)
            ):
                if self.fault_injector is not None:
                    self.fault_injector.record("heap_read")
                self.io_stats.charge_page_reads(1)
            for record in page:
                self.io_stats.charge_records(1)
                yield record

    def scan_batches(self, batch_size, buffer_pool=None):
        """Yield page-aligned record batches, charging per page.

        The batch path of :meth:`scan`: identical page-read and
        record charges (one page read per page touched, one record
        charge per record), but batched — records are charged per
        page instead of one call per record, and batches only break
        at page boundaries, so a batch holds whole pages.  A batch is
        flushed once it reaches ``batch_size`` records; the final
        batch may be smaller.
        """
        if batch_size < 1:
            raise ExecutionError("batch_size must be at least 1")
        if buffer_pool is None:
            # No pool: every page is a miss, so pages and records can
            # be charged in bulk per batch instead of per page.
            batch = []
            page_count = 0
            for page in self._pages:
                page_count += 1
                batch.extend(page)
                if len(batch) >= batch_size:
                    if self.fault_injector is not None:
                        self.fault_injector.record("heap_read", page_count)
                    self.io_stats.charge_page_reads(page_count)
                    self.io_stats.charge_records(len(batch))
                    page_count = 0
                    yield batch
                    batch = []
            if batch:
                if self.fault_injector is not None:
                    self.fault_injector.record("heap_read", page_count)
                self.io_stats.charge_page_reads(page_count)
                self.io_stats.charge_records(len(batch))
                yield batch
            return
        batch = []
        for page_number, page in enumerate(self._pages):
            if not buffer_pool.access((self.schema.relation_name, page_number)):
                if self.fault_injector is not None:
                    self.fault_injector.record("heap_read")
                self.io_stats.charge_page_reads(1)
            self.io_stats.charge_records(len(page))
            batch.extend(page)
            if len(batch) >= batch_size:
                yield batch
                batch = []
        if batch:
            yield batch

    def fetch(self, rid, buffer_pool=None):
        """Fetch one record by RID, charging one page read on a miss.

        This models the unclustered-index record fetch: each qualifying
        RID costs a page access because neighbouring qualifying records
        rarely share pages — unless an LRU ``buffer_pool`` still holds
        the page ([MaL89]'s refinement).
        """
        page_number, slot = rid
        try:
            page = self._pages[page_number]
            record = page[slot]
        except IndexError:
            raise ExecutionError("invalid RID %r" % (rid,)) from None
        if buffer_pool is None or not buffer_pool.access(
            (self.schema.relation_name, page_number)
        ):
            if self.fault_injector is not None:
                self.fault_injector.record("heap_read")
            self.io_stats.charge_page_reads(1)
        self.io_stats.charge_records(1)
        return record

    def fetch_many(self, rids, buffer_pool=None):
        """Fetch several records by RID, with the charges of :meth:`fetch`.

        The batch path of :meth:`fetch`: the same one-page-read-per-RID
        and one-record-per-RID accounting, but charged in bulk when no
        buffer pool is attached (every fetch is a miss, so the totals
        are position-independent).  With a pool every RID is one
        access, in order — but a shared pool also sees the other
        operators' accesses, and how those interleave with this call's
        depends on the batch size, so pooled ``pages_read`` is not the
        same at every batch size (never above the unpooled count).
        """
        pages = self._pages
        if buffer_pool is None:
            try:
                records = [pages[rid[0]][rid[1]] for rid in rids]
            except IndexError:
                for rid in rids:
                    self.fetch(rid)  # re-raises with the offending RID
                raise ExecutionError("invalid RID in %r" % (rids,))
            if self.fault_injector is not None:
                self.fault_injector.record("heap_read", len(records))
            self.io_stats.charge_page_reads(len(records))
            self.io_stats.charge_records(len(records))
            return records
        return [self.fetch(rid, buffer_pool) for rid in rids]

    def all_records(self):
        """All records without charging I/O (catalog/loader internals)."""
        result = []
        for page in self._pages:
            result.extend(page)
        return result

    def __len__(self):
        return self.record_count

    def __repr__(self):
        return "HeapFile(%r, %d records, %d pages)" % (
            self.schema.relation_name,
            self.record_count,
            self.page_count,
        )
