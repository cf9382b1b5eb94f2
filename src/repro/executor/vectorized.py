"""The physical algebra's operators: Volcano iterators at batch granularity.

Every operator is an iterator with ``open`` / ``batches()`` (Python
iteration) / ``close`` — the protocol of the Volcano execution engine,
moving a *list* of value tuples per advance instead of one record
(:data:`DEFAULT_BATCH_SIZE` by default, ``batch_size`` on
:class:`~repro.executor.engine.ExecutionContext`), which amortizes
generator resumption, I/O-charging calls and predicate dispatch over a
whole batch.  Operators charge their simulated I/O and CPU work to the
database's :class:`~repro.storage.iostats.IOStatistics`, so executed
plans can be compared against the optimizer's cost predictions.

Opening an operator builds and opens its inputs and fixes its output
:attr:`~BatchPlanIterator.layout` from theirs — a scan has its heap's
layout; a filter, sort or choose-plan its input's; a join the memoized
merge of its inputs' (:meth:`~repro.storage.records.Layout.merged`); a
projection the memoized projection; a ``Materialized`` checkpoint its
rows' — so every kernel resolves its attribute positions once per
operator, before any batch flows, and indexes ``t[i]``.  Opening does
no I/O: blocking operators drain their inputs at their first batch, so
the order in which pages are read is the order batches are pulled.
Records are made only from the root's tuples, at result assembly
(:func:`~repro.executor.engine.execute_plan`).

The batch size changes only *when* work happens, never *what* work
happens: result rows, row order, ``records_processed``,
``index_probes``, page writes and choose-plan decisions are the same at
every ``batch_size``, and without a shared buffer pool so is
``pages_read``.  With ``use_buffer_pool=True`` operators' page accesses
interleave differently in the shared LRU at different batch sizes, so
``pages_read`` varies — never above the unpooled count.
``batch_size=1`` is record-at-a-time execution.

* scans emit page-aligned batches (whole heap pages per batch) and
  charge per page and per record;
* filters apply one compiled kernel
  (:mod:`repro.executor.predicates`) over a batch in a single
  comprehension;
* joins emit ``left + right`` tuples, passed through the merge's gather
  only when the two sides share a name; hash joins build their table in
  one pass over the build side's batches and probe per batch;
* choose-plan resolves its decision procedure at open — before any
  batch flows — and then delegates wholesale to the chosen child's
  batch stream;
* blocking operators (sort, merge join) materialize their inputs.

``tests/test_vectorized.py`` holds these invariants over all five paper
queries, static and dynamic, and pins the I/O totals and row digests the
deleted record-at-a-time engine produced.
"""

from collections import defaultdict
from itertools import compress, islice
from operator import itemgetter

from repro.algebra.physical import (
    BTreeScan,
    ChoosePlan,
    FileScan,
    Filter,
    FilterBTreeScan,
    HashJoin,
    IndexJoin,
    Materialized,
    MergeJoin,
    Project,
    Sort,
)
from repro.common.errors import ExecutionError
from repro.common.units import pages_for_records
from repro.executor.predicates import (
    column,
    compile_batch_mask,
    compile_batch_predicate,
    deferred,
)
from repro.executor.startup import resolve_dynamic_plan
from repro.storage.records import Layout

#: Records per batch when the execution context does not override it.
DEFAULT_BATCH_SIZE = 1024


def build_batch_iterator(plan, context):
    """Construct the batch-iterator tree for a physical plan DAG."""
    if isinstance(plan, FileScan):
        return FileScanBatchIterator(plan, context)
    if isinstance(plan, BTreeScan):
        return BTreeScanBatchIterator(plan, context)
    if isinstance(plan, FilterBTreeScan):
        return FilterBTreeScanBatchIterator(plan, context)
    if isinstance(plan, Filter):
        return FilterBatchIterator(plan, context)
    if isinstance(plan, HashJoin):
        return HashJoinBatchIterator(plan, context)
    if isinstance(plan, MergeJoin):
        return MergeJoinBatchIterator(plan, context)
    if isinstance(plan, IndexJoin):
        return IndexJoinBatchIterator(plan, context)
    if isinstance(plan, Project):
        return ProjectBatchIterator(plan, context)
    if isinstance(plan, Sort):
        return SortBatchIterator(plan, context)
    if isinstance(plan, ChoosePlan):
        return ChoosePlanBatchIterator(plan, context)
    if isinstance(plan, Materialized):
        return MaterializedBatchIterator(plan, context)
    raise ExecutionError("no batch iterator for operator %r" % plan)


def _open(plan, context):
    """The opened batch iterator of an operator's input."""
    return build_batch_iterator(plan, context).open()


class BatchPlanIterator:
    """Base class: the open/next-batch/close protocol.

    ``_produce_batches`` opens the operator's inputs, sets
    :attr:`layout` and returns an iterator of non-empty lists of value
    tuples on it.  With a tracer on the context the batch stream is
    wrapped in a counting span (rows advance by batch length); without
    one the only overhead is a single ``is None`` test at open.
    """

    #: The :class:`~repro.storage.records.Layout` of every tuple the
    #: operator emits; fixed at open.
    layout = None

    def __init__(self, plan, context):
        self.plan = plan
        self.context = context
        self._stream = None

    def open(self):
        """Prepare the batch stream; idempotent.

        Checks the context deadline first, so an expired query cancels
        before any operator does work.
        """
        if self._stream is None:
            deadline = self.context.deadline
            if deadline is not None:
                deadline.check()
            tracer = self.context.tracer
            if tracer is None:
                self._stream = self._produce_batches()
            else:
                self._stream = tracer.instrument_batches(self)
        return self

    def batches(self):
        """The operator's batch stream (opens on first use)."""
        self.open()
        return self._stream

    def __iter__(self):
        return self.batches()

    def close(self):
        """Release resources."""
        self._stream = None

    @property
    def batch_size(self):
        """Target records per batch, from the execution context."""
        return self.context.batch_size

    @property
    def io_stats(self):
        """Shared I/O accounting."""
        return self.context.io_stats

    def _produce_batches(self):
        raise NotImplementedError


class FileScanBatchIterator(BatchPlanIterator):
    """Sequential heap scan emitting page-aligned batches."""

    def _produce_batches(self):
        heap = self.context.database.heap(self.plan.relation_name)
        self.layout = heap.layout
        return heap.scan_batches(self.batch_size, self.context.buffer_pool)


def _scan_buffer(context, relation_name, attribute):
    """Page buffer for index-driven fetches.

    Clustered indexes visit adjacent heap pages, so even without a
    shared buffer pool a one-page scan buffer absorbs the repeat
    accesses (every real system keeps the current page pinned).
    Unclustered fetches keep their one-random-I/O-per-record
    behaviour.
    """
    if context.buffer_pool is not None:
        return context.buffer_pool
    index_info = context.database.catalog.index_on(relation_name, attribute)
    if index_info is not None and index_info.clustered:
        from repro.storage.buffer import BufferPool

        return BufferPool(
            1, fault_injector=getattr(context.database, "fault_injector", None)
        )
    return None


class BTreeScanBatchIterator(BatchPlanIterator):
    """Full B-tree scan in key order, heap fetches bulked per batch.

    RIDs are gathered from the leaf chain in batch-size chunks and the
    heap tuples fetched with :meth:`~repro.storage.heapfile.HeapFile.
    fetch_many`, which charges the per-RID page/record totals in two
    bulk calls instead of two per record.
    """

    def _produce_batches(self):
        database = self.context.database
        plan = self.plan
        btree = database.btree(plan.relation_name, plan.attribute)
        heap = database.heap(plan.relation_name)
        self.layout = heap.layout
        pool = _scan_buffer(self.context, plan.relation_name, plan.attribute)
        return _index_batches(
            btree.range_scan(), self.context.batch_size, heap, pool
        )


class FilterBTreeScanBatchIterator(BatchPlanIterator):
    """Sargable index scan over the predicate's key range, batched.

    Qualifying RIDs are bulk-fetched per chunk (see
    :class:`BTreeScanBatchIterator`) and the full predicate is
    re-applied over the fetched chunk with one compiled batch kernel
    (exact semantics for the exclusive operators).
    """

    def _produce_batches(self):
        database = self.context.database
        plan = self.plan
        btree = database.btree(plan.relation_name, plan.attribute)
        heap = database.heap(plan.relation_name)
        self.layout = heap.layout
        low, high = sargable_key_range(plan.predicate, self.context.bindings)
        pool = _scan_buffer(self.context, plan.relation_name, plan.attribute)
        filter_batch = compile_batch_predicate(
            plan.predicate, self.context.bindings, heap.layout
        )
        return _index_batches(
            btree.range_scan(low, high),
            self.context.batch_size,
            heap,
            pool,
            filter_batch,
        )


class FilterBatchIterator(BatchPlanIterator):
    """Predicate filter: one compiled kernel over each input batch."""

    def _produce_batches(self):
        child = _open(self.plan.input, self.context)
        self.layout = child.layout
        filter_batch = compile_batch_predicate(
            self.plan.predicate, self.context.bindings, child.layout
        )

        def generate():
            charge = self.io_stats.charge_records
            for batch in child.batches():
                charge(len(batch))
                passed = filter_batch(batch)
                if passed:
                    yield passed

        return generate()


def _secondary_predicates(predicates, layout):
    """``keep(rows) -> rows`` checking the secondary join predicates on
    join outputs on ``layout``, or ``None`` when there are none.

    Both sides' positions are resolved once; an attribute that does not
    resolve raises on the first output (:func:`~repro.executor.
    predicates.deferred`).
    """
    try:
        pairs = [
            (layout.position(p.left_attribute), layout.position(p.right_attribute))
            for p in predicates[1:]
        ]
    except ExecutionError as error:
        return deferred(error)
    if not pairs:
        return None

    def keep(rows):
        return [t for t in rows if all(t[i] == t[j] for i, j in pairs)]

    return keep


class HashJoinBatchIterator(BatchPlanIterator):
    """Hash join: build in one pass, probe per batch.

    The build table is assembled from the build side's batches before
    any output flows; probing then streams batch-by-batch.  A probe
    batch's keys that miss the table are dropped by ``compress`` over
    their membership, so only the hits reach the Python loop that
    concatenates matches: most probe keys miss on selective joins.
    Rows and their order are those of a probe of every key.  When the
    build side overflows memory the probe side is materialized first
    and the partition-spill I/O the cost model predicts is charged
    (both inputs written and re-read once) — the result is the same,
    only the accounting differs, which is all the simulation needs.
    """

    def _produce_batches(self):
        plan = self.plan
        build_child = _open(plan.build, self.context)
        probe_child = _open(plan.probe, self.context)
        build_attr, probe_attr = join_sides(plan.predicate, build_child.layout)
        build_keys = column(build_child.layout, build_attr)
        probe_keys = column(probe_child.layout, probe_attr)
        self.layout, gather = build_child.layout.merged(probe_child.layout)
        extra = _secondary_predicates(plan.predicates, self.layout)
        memory = self.context.memory_pages
        batch_size = self.batch_size

        def generate():
            charge = self.io_stats.charge_records
            table = defaultdict(list)
            build_count = 0
            for batch in build_child.batches():
                charge(len(batch))
                build_count += len(batch)
                for row, key in zip(batch, build_keys(batch)):
                    table[key].append(row)
            build_pages = pages_for_records(build_count)
            if build_pages > memory:
                probe_rows = _drain(probe_child)
                charge(len(probe_rows))
                spill_pages = build_pages + pages_for_records(len(probe_rows))
                self.io_stats.charge_page_writes(spill_pages)
                self.io_stats.charge_page_reads(spill_pages)
                probe_batches = _rebatch(probe_rows, batch_size)
            else:
                def charged_batches():
                    for batch in probe_child.batches():
                        charge(len(batch))
                        yield batch

                probe_batches = charged_batches()
            hit = table.__contains__
            for batch in probe_batches:
                keys = probe_keys(batch)
                if not table:
                    continue
                # Keys that miss the table drop out in C, before the
                # Python loop; build fields first, the probe side's
                # winning on a shared name.
                matched = [
                    match + row
                    for row, key in compress(zip(batch, keys), map(hit, keys))
                    for match in table[key]
                ]
                if gather is not None:
                    matched = list(map(gather, matched))
                if extra is not None:
                    matched = extra(matched)
                if matched:
                    charge(len(matched))
                    yield matched

        return generate()


class MergeJoinBatchIterator(BatchPlanIterator):
    """Merge join of two sorted inputs, output re-batched."""

    def _produce_batches(self):
        plan = self.plan
        left_child = _open(plan.left, self.context)
        right_child = _open(plan.right, self.context)
        left_attr, right_attr = join_sides(plan.predicate, left_child.layout)
        left_column = column(left_child.layout, left_attr)
        right_column = column(right_child.layout, right_attr)
        self.layout, gather = left_child.layout.merged(right_child.layout)
        extra = _secondary_predicates(plan.predicates, self.layout)
        batch_size = self.batch_size

        def generate():
            left_rows = _drain(left_child)
            right_rows = _drain(right_child)
            charge = self.io_stats.charge_records
            charge(len(left_rows) + len(right_rows))
            left_keys = left_column(left_rows)
            right_keys = right_column(right_rows)
            if not (left_rows and right_rows):
                return
            out = []
            left_index = 0
            right_index = 0
            while left_index < len(left_rows) and right_index < len(right_rows):
                left_key = left_keys[left_index]
                right_key = right_keys[right_index]
                if left_key < right_key:
                    left_index += 1
                elif left_key > right_key:
                    right_index += 1
                else:
                    # Gather the duplicate blocks on both sides.
                    left_end = left_index
                    while (
                        left_end < len(left_rows)
                        and left_keys[left_end] == left_key
                    ):
                        left_end += 1
                    right_end = right_index
                    while (
                        right_end < len(right_rows)
                        and right_keys[right_end] == right_key
                    ):
                        right_end += 1
                    block = [
                        left + right
                        for left in left_rows[left_index:left_end]
                        for right in right_rows[right_index:right_end]
                    ]
                    if gather is not None:
                        block = list(map(gather, block))
                    if extra is not None:
                        block = extra(block)
                    out.extend(block)
                    left_index = left_end
                    right_index = right_end
                    if len(out) >= batch_size:
                        charge(len(out))
                        yield out
                        out = []
            if out:
                charge(len(out))
                yield out

        return generate()


class IndexJoinBatchIterator(BatchPlanIterator):
    """Index nested-loop join probing the inner B-tree per outer record."""

    def _produce_batches(self):
        plan = self.plan
        outer_child = _open(plan.outer, self.context)
        database = self.context.database
        btree = database.btree(plan.inner_relation, plan.inner_attribute)
        heap = database.heap(plan.inner_relation)
        outer_keys = column(outer_child.layout, index_join_outer_attribute(plan))
        pool = _scan_buffer(self.context, plan.inner_relation, plan.inner_attribute)
        residual = None
        if plan.residual_predicate is not None:
            residual = compile_batch_mask(
                plan.residual_predicate, self.context.bindings, heap.layout
            )
        self.layout, gather = outer_child.layout.merged(heap.layout)
        extra = _secondary_predicates(plan.predicates, self.layout)

        def generate():
            charge = self.io_stats.charge_records
            search_many = btree.search_many
            fetch_many = heap.fetch_many
            for batch in outer_child.batches():
                charge(len(batch))
                rid_lists = search_many(outer_keys(batch))
                outers = []
                rids = []
                for outer_row, matches in zip(batch, rid_lists):
                    if matches:
                        outers.extend([outer_row] * len(matches))
                        rids.extend(matches)
                if not rids:
                    continue
                inners = fetch_many(rids, pool)
                pairs = zip(outers, inners)
                if residual is not None:
                    pairs = compress(pairs, residual(inners))
                out = [outer + inner for outer, inner in pairs]
                if gather is not None:
                    out = list(map(gather, out))
                if extra is not None:
                    out = extra(out)
                if out:
                    charge(len(out))
                    yield out

        return generate()


class SortBatchIterator(BatchPlanIterator):
    """Sort enforcer: materializes, orders, re-emits in batches.

    Inputs larger than memory charge external-merge I/O (one partition
    pass) so the simulation matches the cost model's shape.
    """

    def _produce_batches(self):
        child = _open(self.plan.input, self.context)
        self.layout = child.layout
        try:
            sort_key = itemgetter(child.layout.position(self.plan.attribute))
        except ExecutionError as error:
            sort_key = deferred(error)  # a row is never empty: raises on the first
        batch_size = self.batch_size

        def generate():
            rows = _drain(child)
            self.io_stats.charge_records(len(rows))
            pages = pages_for_records(len(rows))
            if pages > self.context.memory_pages:
                self.io_stats.charge_page_writes(pages)
                self.io_stats.charge_page_reads(pages)
            yield from _rebatch(sorted(rows, key=sort_key), batch_size)

        return generate()


class ProjectBatchIterator(BatchPlanIterator):
    """Attribute projection applied over whole batches."""

    def _produce_batches(self):
        child = _open(self.plan.input, self.context)
        attributes = self.plan.attributes
        try:
            self.layout, gather = child.layout.projected(attributes)
        except ExecutionError as error:
            self.layout, project = Layout(dict.fromkeys(attributes)), deferred(error)
        else:
            def project(rows):
                return list(map(gather, rows))

        def generate():
            charge = self.io_stats.charge_records
            for batch in child.batches():
                charge(len(batch))
                yield project(batch)

        return generate()


class ChoosePlanBatchIterator(BatchPlanIterator):
    """The choose-plan operator's run-time behaviour.

    At open — before any batch flows — :func:`resolve_dynamic_plan`
    compiles the plan's decision program and runs one pass under the
    context's run-time bindings (shared subplans costed once, nested
    choose-plans decided in rank order), then opens only the cheapest
    alternative, whose layout and batch stream are returned as-is:
    choose-plan adds zero per-batch overhead.
    """

    def _produce_batches(self):
        chosen = _open(self.choose(), self.context)
        self.layout = chosen.layout
        return chosen.batches()

    def choose(self):
        """The resolved plan the decision procedure selects."""
        chosen, report = resolve_dynamic_plan(
            self.plan,
            self.context.database.catalog,
            self.context.parameter_space,
            self.context.bindings,
        )
        for choose_node, alternative in report.choices:
            self.context.record_decision(choose_node, alternative)
        return chosen


class MaterializedBatchIterator(BatchPlanIterator):
    """Replays a run-time temporary result (paper Section 7) in batches."""

    def _produce_batches(self):
        self.layout = self.plan.layout
        return _rebatch(self.plan.rows, self.batch_size)


def sargable_key_range(predicate, bindings):
    """``(low, high)`` B-tree key bounds a selection predicate admits.

    Inclusive bounds with ``None`` for an open end; the exclusive
    operators over-approximate and ``<>`` is not sargable (full
    range), so callers re-apply the predicate to what they fetch.
    """
    comparison = predicate.comparison
    value = comparison.operand.resolve(bindings)
    op = comparison.op.value
    if op == "=":
        return value, value
    if op in ("<", "<="):
        return None, value
    if op in (">", ">="):
        return value, None
    return None, None


def join_sides(predicate, left_layout):
    """``(left-side, right-side)`` attributes of a join predicate,
    oriented so the first belongs to the input on ``left_layout``: the
    one holding a field of the predicate's left relation."""
    prefix = predicate.left_attribute.split(".", 1)[0] + "."
    if any(name.startswith(prefix) for name in left_layout.names):
        return predicate.left_attribute, predicate.right_attribute
    return predicate.right_attribute, predicate.left_attribute


def index_join_outer_attribute(plan):
    """The outer-side attribute of an index join's primary predicate."""
    predicate = plan.predicate
    inner_qualified = "%s.%s" % (plan.inner_relation, plan.inner_attribute)
    if predicate.left_attribute == inner_qualified:
        return predicate.right_attribute
    return predicate.left_attribute


def _index_batches(entries, batch_size, heap, pool, filter_batch=None):
    """Heap tuples for a B-tree ``(key, rid)`` stream, in batches.

    RIDs are taken ``batch_size`` at a time and bulk-fetched; with a
    ``filter_batch`` each fetched chunk is filtered and empty results
    are skipped.  One generator for the whole scan: an index scan
    returning a handful of rows pays for its set-up, not its rows.
    """
    fetch_many = heap.fetch_many
    while True:
        rids = [rid for _key, rid in islice(entries, batch_size)]
        if rids:
            batch = fetch_many(rids, pool)
            if filter_batch is not None:
                batch = filter_batch(batch)
            if batch:
                yield batch
        if len(rids) < batch_size:
            return


def _drain(iterator):
    """Materialize an opened iterator's batch stream into one list."""
    rows = []
    for batch in iterator.batches():
        rows.extend(batch)
    return rows


def _rebatch(rows, batch_size):
    """Slice a list of tuples into batches of ``batch_size``."""
    return (
        rows[start : start + batch_size]
        for start in range(0, len(rows), batch_size)
    )
