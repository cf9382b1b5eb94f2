"""The stored database: heap files plus B-tree indexes per catalog.

A :class:`Database` binds a :class:`~repro.catalog.Catalog` to actual
stored data.  Indexes declared in the catalog are built automatically
as records are loaded, so catalog metadata and physical structures
cannot drift apart.
"""

from repro.common.errors import CatalogError, ExecutionError
from repro.storage.btree import BTree
from repro.storage.heapfile import HeapFile
from repro.storage.iostats import IOStatistics


class Database:
    """Stored relations and indexes matching a catalog."""

    def __init__(self, catalog, io_stats=None):
        self.catalog = catalog
        self.io_stats = io_stats if io_stats is not None else IOStatistics()
        #: Optional :class:`~repro.resilience.faults.FaultInjector`
        #: propagated to every stored structure; install and remove it
        #: with :meth:`install_fault_injector`.
        self.fault_injector = None
        self._heaps = {}
        self._btrees = {}

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def create_relation(self, relation_name):
        """Allocate the heap file and index structures for a relation."""
        schema = self.catalog.schema(relation_name)
        if relation_name in self._heaps:
            raise CatalogError("relation %r already stored" % relation_name)
        self._heaps[relation_name] = HeapFile(
            schema, self.io_stats, fault_injector=self.fault_injector
        )
        self._btrees[relation_name] = {}
        for index_info in self.catalog.indexes_for(relation_name):
            self._btrees[relation_name][index_info.attribute_name] = BTree(
                index_info.attribute_name,
                self.io_stats,
                clustered=index_info.clustered,
                fault_injector=self.fault_injector,
            )

    def install_fault_injector(self, injector):
        """Attach (or with ``None`` detach) a fault injector everywhere.

        Propagates to every existing heap file and B-tree and to
        structures created later, so one call arms the whole stored
        database; execution contexts read the attribute for buffer
        pools and memory-pressure checks.
        """
        self.fault_injector = injector
        for heap in self._heaps.values():
            heap.fault_injector = injector
        for btrees in self._btrees.values():
            for btree in btrees.values():
                btree.fault_injector = injector
        return injector

    def load(self, relation_name, rows):
        """Bulk-load rows into a relation, maintaining all its indexes.

        When the catalog declares a *clustered* index, rows are stored
        in that attribute's order, so records matching an index range
        sit on adjacent heap pages.
        """
        if relation_name not in self._heaps:
            self.create_relation(relation_name)
        heap = self._heaps[relation_name]
        btrees = self._btrees[relation_name]
        clustered_attribute = None
        for index_info in self.catalog.indexes_for(relation_name):
            if index_info.clustered:
                clustered_attribute = index_info.attribute_name
                break
        rows = list(rows)
        if clustered_attribute is not None:
            schema = self.catalog.schema(relation_name)
            position = schema.position_of(clustered_attribute)
            name = schema.attributes[position].name

            def sort_key(row):
                if name in row:
                    return row[name]
                return row["%s.%s" % (relation_name, name)]

            rows.sort(key=sort_key)
        first = heap.record_count
        rids = heap.bulk_load(rows)
        stored = heap._rows
        for attribute_name, btree in btrees.items():
            position = heap.layout.positions[
                "%s.%s" % (relation_name, attribute_name)
            ]
            insert = btree.insert
            for index, rid in enumerate(rids, first):
                insert(stored[index][position], rid)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def heap(self, relation_name):
        """The heap file of a relation."""
        try:
            return self._heaps[relation_name]
        except KeyError:
            raise ExecutionError(
                "relation %r has no stored data" % relation_name
            ) from None

    def btree(self, relation_name, attribute_name):
        """The B-tree on an attribute; raises when absent."""
        if "." in attribute_name:
            prefix, rest = attribute_name.split(".", 1)
            if prefix == relation_name:
                attribute_name = rest
        try:
            return self._btrees[relation_name][attribute_name]
        except KeyError:
            raise ExecutionError(
                "no B-tree on %s.%s" % (relation_name, attribute_name)
            ) from None

    def has_btree(self, relation_name, attribute_name):
        """True when a B-tree exists on the attribute."""
        try:
            self.btree(relation_name, attribute_name)
        except ExecutionError:
            return False
        return True

    def relation_names(self):
        """Names of relations with stored data."""
        return sorted(self._heaps)

    def __repr__(self):
        return "Database(%d stored relations)" % len(self._heaps)
