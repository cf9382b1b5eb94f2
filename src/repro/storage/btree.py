"""A B+-tree index over one attribute of a heap file.

This is a real tree — nodes split at a fan-out limit, leaves are
chained for range scans — not a sorted-list stand-in.  Keys map to
lists of RIDs (duplicates allowed).  Traversals charge one page read
per node visited, so index scans have the cost profile the paper's
cost model assumes: a root-to-leaf descent plus one leaf page per
``fan_out`` qualifying keys, plus (for unclustered indexes) one heap
page fetch per qualifying record.
"""

import bisect

from repro.common.errors import ExecutionError


class _Node:
    """Internal or leaf node; leaves keep RID lists and a next pointer."""

    __slots__ = ("keys", "children", "values", "next_leaf", "is_leaf")

    def __init__(self, is_leaf):
        self.is_leaf = is_leaf
        self.keys = []
        self.children = [] if not is_leaf else None
        self.values = [] if is_leaf else None
        self.next_leaf = None


class BTree:
    """B+-tree mapping attribute values to RID lists."""

    def __init__(self, attribute_name, io_stats, fan_out=32, clustered=False,
                 fault_injector=None):
        if fan_out < 4:
            raise ExecutionError("B-tree fan-out must be at least 4")
        self.attribute_name = attribute_name
        self.io_stats = io_stats
        self.fan_out = fan_out
        self.clustered = clustered
        #: Optional :class:`~repro.resilience.faults.FaultInjector`;
        #: consulted once per root-to-leaf descent, before the probe's
        #: I/O is charged.
        self.fault_injector = fault_injector
        self._root = _Node(is_leaf=True)
        self._height = 1
        self._entry_count = 0
        #: ``(entry_count, {id(leaf): ordinal})`` as of its last build.
        self._ordinals = (None, None)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def insert(self, key, rid):
        """Insert one (key, RID) entry, splitting nodes as needed."""
        result = self._insert_into(self._root, key, rid)
        if result is not None:
            separator, new_node = result
            new_root = _Node(is_leaf=False)
            new_root.keys = [separator]
            new_root.children = [self._root, new_node]
            self._root = new_root
            self._height += 1
        self._entry_count += 1

    def _insert_into(self, node, key, rid):
        """Recursive insert; returns (separator, new right node) on split."""
        if node.is_leaf:
            position = bisect.bisect_left(node.keys, key)
            if position < len(node.keys) and node.keys[position] == key:
                node.values[position].append(rid)
                return None
            node.keys.insert(position, key)
            node.values.insert(position, [rid])
            if len(node.keys) > self.fan_out:
                return self._split_leaf(node)
            return None
        position = bisect.bisect_right(node.keys, key)
        result = self._insert_into(node.children[position], key, rid)
        if result is None:
            return None
        separator, new_child = result
        node.keys.insert(position, separator)
        node.children.insert(position + 1, new_child)
        if len(node.children) > self.fan_out:
            return self._split_internal(node)
        return None

    def _split_leaf(self, node):
        middle = len(node.keys) // 2
        sibling = _Node(is_leaf=True)
        sibling.keys = node.keys[middle:]
        sibling.values = node.values[middle:]
        node.keys = node.keys[:middle]
        node.values = node.values[:middle]
        sibling.next_leaf = node.next_leaf
        node.next_leaf = sibling
        return sibling.keys[0], sibling

    def _split_internal(self, node):
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        sibling = _Node(is_leaf=False)
        sibling.keys = node.keys[middle + 1:]
        sibling.children = node.children[middle + 1:]
        node.keys = node.keys[:middle]
        node.children = node.children[:middle + 1]
        return separator, sibling

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def height(self):
        """Levels from root to leaf, inclusive."""
        return self._height

    @property
    def entry_count(self):
        """Total (key, RID) entries inserted."""
        return self._entry_count

    def leaf_count(self):
        """Number of leaf nodes (for cost-model validation tests)."""
        return len(self._leaf_ordinals())

    def _descend(self, key):
        """The leaf a descent for ``key`` reaches (the leftmost for
        ``None``), uncharged."""
        node = self._root
        while not node.is_leaf:
            position = 0 if key is None else bisect.bisect_right(node.keys, key)
            node = node.children[position]
        return node

    def _leaf_ordinals(self):
        """``{id(leaf): position in the leaf chain}``, rebuilt when an
        insert (the only way leaves split) has run since."""
        built, ordinals = self._ordinals
        if built != self._entry_count:
            ordinals = {}
            node = self._descend(None)
            while node is not None:
                ordinals[id(node)] = len(ordinals)
                node = node.next_leaf
            self._ordinals = (self._entry_count, ordinals)
        return ordinals

    def check_invariants(self):
        """Verify ordering and linkage invariants; raises on violation.

        Used by property-based tests: all keys in sorted order within
        nodes, leaf chain globally sorted, every entry reachable.
        """
        previous_key = None
        reachable = 0
        node = self._descend(None)
        while node is not None:
            if node.keys != sorted(node.keys):
                raise ExecutionError("leaf keys out of order")
            for key, rids in zip(node.keys, node.values):
                if previous_key is not None and key <= previous_key:
                    raise ExecutionError("leaf chain out of order")
                previous_key = key
                if not rids:
                    raise ExecutionError("empty RID list for key %r" % (key,))
                reachable += len(rids)
            node = node.next_leaf
        if reachable != self._entry_count:
            raise ExecutionError(
                "entry count mismatch: %d reachable of %d inserted"
                % (reachable, self._entry_count)
            )

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def search(self, key):
        """RIDs for an exact key (empty list when absent).

        Charges one page read per level (the probe) and counts one
        index probe.
        """
        if self.fault_injector is not None:
            self.fault_injector.record("index_probe")
        self.io_stats.charge_index_probe(1)
        node = self._root
        while not node.is_leaf:
            self.io_stats.charge_page_reads(1)
            position = bisect.bisect_right(node.keys, key)
            node = node.children[position]
        self.io_stats.charge_page_reads(1)
        position = bisect.bisect_left(node.keys, key)
        if position < len(node.keys) and node.keys[position] == key:
            return list(node.values[position])
        return []

    def search_many(self, keys):
        """RID lists for several exact keys, charged like :meth:`search`.

        The batch path of :meth:`search`: one index probe and one page
        read per level for each key — every descent touches the same
        number of levels because all leaves sit at the same depth — so
        the totals of ``len(keys)`` single searches can be charged in
        two bulk calls, and the descents run without per-level
        accounting.  Duplicate keys are charged like repeated searches
        but descend only once; the returned RID lists may be shared
        between duplicates, so callers must treat them as read-only.
        """
        height = 1
        node = self._root
        while not node.is_leaf:
            height += 1
            node = node.children[0]
        if self.fault_injector is not None:
            self.fault_injector.record("index_probe", len(keys))
        self.io_stats.charge_index_probe(len(keys))
        self.io_stats.charge_page_reads(height * len(keys))
        root = self._root
        bisect_right = bisect.bisect_right
        bisect_left = bisect.bisect_left
        memo = {}
        results = []
        append = results.append
        for key in keys:
            rids = memo.get(key)
            if rids is None:
                node = root
                while not node.is_leaf:
                    node = node.children[bisect_right(node.keys, key)]
                position = bisect_left(node.keys, key)
                if position < len(node.keys) and node.keys[position] == key:
                    rids = list(node.values[position])
                else:
                    rids = []
                memo[key] = rids
            append(rids)
        return results

    def range_scan(self, low=None, high=None):
        """Yield ``(key, rid)`` in key order for ``low <= key <= high``.

        ``None`` bounds are open.  Charges the initial descent plus one
        page read per additional leaf visited.
        """
        if self.fault_injector is not None:
            self.fault_injector.record("index_probe")
        self.io_stats.charge_index_probe(1)
        node = self._root
        while not node.is_leaf:
            self.io_stats.charge_page_reads(1)
            if low is None:
                node = node.children[0]
            else:
                position = bisect.bisect_right(node.keys, low)
                node = node.children[position]
        self.io_stats.charge_page_reads(1)
        start = 0 if low is None else bisect.bisect_left(node.keys, low)
        while node is not None:
            for position in range(start, len(node.keys)):
                key = node.keys[position]
                if high is not None and key > high:
                    return
                for rid in node.values[position]:
                    yield key, rid
            node = node.next_leaf
            start = 0
            if node is not None:
                self.io_stats.charge_page_reads(1)

    def count_range(self, low=None, high=None, inclusive=True):
        """How many entries ``range_scan(low, high)`` yields, counted in
        the leaves with no RID fetched: one index probe, the same fault
        site.  ``inclusive=False`` walks entries whose key equals a bound
        without counting them (``<`` and ``>``).

        A half-open range walks whichever side of its bound has fewer
        leaves: the range itself, or its complement, whose count it
        subtracts from :attr:`entry_count`.  It charges that walk's
        pages, the fewer of ``range_scan(None, bound)`` and
        ``range_scan(bound, None)``.  The sides' lengths are read off the
        tree's shape (leaf ordinals), as a tree keeping per-node leaf
        counts reads them on the descent, at no page.
        """
        if self.fault_injector is not None:
            self.fault_injector.record("index_probe")
        self.io_stats.charge_index_probe(1)
        if (low is None) == (high is None):
            count, leaves = _walk(self._descend(low), low, high, inclusive)
        else:
            bound = high if low is None else low
            leaf = self._descend(bound)
            ordinals = self._leaf_ordinals()
            ordinal = ordinals[id(leaf)]
            # Leaves past the first that range_scan(None, bound) reads
            # (up to the first key above the bound) and that
            # range_scan(bound, None) reads (to the end).
            below = ordinal
            if not (leaf.keys and leaf.keys[-1] > bound):
                below = min(ordinal + 1, len(ordinals) - 1)
            above = len(ordinals) - 1 - ordinal
            complement = above < below if low is None else below < above
            if complement:
                low, high, inclusive = high, low, not inclusive
            start = leaf if high is None else self._descend(None)
            count, leaves = _walk(start, low, high, inclusive)
            if complement:
                count = self._entry_count - count
        self.io_stats.charge_page_reads(self._height - 1 + leaves)
        return count

    def keys_in_order(self):
        """All distinct keys in ascending order (no I/O charged)."""
        result = []
        node = self._descend(None)
        while node is not None:
            result.extend(node.keys)
            node = node.next_leaf
        return result

    def __repr__(self):
        return "BTree(%r, entries=%d, height=%d)" % (
            self.attribute_name,
            self._entry_count,
            self._height,
        )


def _walk(node, low, high, inclusive):
    """``(entries, leaves read)`` of a leaf-chain walk from ``node`` over
    ``low <= key <= high``, stopping where :meth:`BTree.range_scan`
    stops; ``inclusive=False`` leaves a bound's own entries out."""
    start = 0 if low is None else bisect.bisect_left(node.keys, low)
    count = 0
    leaves = 1
    while True:
        keys = node.keys
        end = len(keys) if high is None else bisect.bisect_right(keys, high)
        first, last = start, end
        if not inclusive:
            first += first < last and keys[first] == low
            last -= first < last and keys[last - 1] == high
        count += sum(map(len, node.values[first:last]))
        node = node.next_leaf
        if end < len(keys) or node is None:
            return count, leaves
        leaves += 1
        start = 0
