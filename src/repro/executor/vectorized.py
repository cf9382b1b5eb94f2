"""The physical algebra's operators: Volcano iterators at batch granularity.

Every operator is an iterator with ``open`` / ``batches()`` (Python
iteration) / ``close`` — the protocol of the Volcano execution engine,
moving a *list* of records per advance instead of one record
(:data:`DEFAULT_BATCH_SIZE` by default, ``batch_size`` on
:class:`~repro.executor.engine.ExecutionContext`), which amortizes
generator resumption, I/O-charging calls and predicate dispatch over a
whole batch.  Operators charge their simulated I/O and CPU work to the
database's :class:`~repro.storage.iostats.IOStatistics`, so executed
plans can be compared against the optimizer's cost predictions.

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
* filters apply one precompiled predicate closure
  (:mod:`repro.executor.predicates`) over a batch in a single
  comprehension;
* hash joins build their table in one pass over the build side's
  batches and probe per batch;
* choose-plan resolves its decision procedure at open — before any
  batch flows — and then delegates wholesale to the chosen child's
  batch stream;
* blocking operators (sort, merge join) materialize their inputs.

``tests/test_vectorized.py`` holds these invariants over all five paper
queries, static and dynamic, and pins the I/O totals and row digests the
deleted record-at-a-time engine produced.
"""

from itertools import compress, islice

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
    column_position,
    compile_batch_mask,
    compile_batch_predicate,
    compile_predicate,
)
from repro.storage.records import Record

_new = Record.__new__

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


class BatchPlanIterator:
    """Base class: the open/next-batch/close protocol.

    ``_produce_batches`` returns an iterator of non-empty record
    lists.  With a tracer on the context the batch stream is wrapped
    in a counting span (rows advance by batch length); without one
    the only overhead is a single ``is None`` test at open.
    """

    def __init__(self, plan, context):
        self.plan = plan
        self.context = context
        self._stream = None

    def open(self):
        """Prepare the batch stream; idempotent.

        Checks the context deadline first, so an expired query cancels
        before any operator does work (blocking operators like sort
        and hash join do all their work at the first batch, after
        open).
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
    heap records fetched with :meth:`~repro.storage.heapfile.HeapFile.
    fetch_many`, which charges the per-RID page/record totals in two
    bulk calls instead of two per record.
    """

    def _produce_batches(self):
        database = self.context.database
        plan = self.plan
        btree = database.btree(plan.relation_name, plan.attribute)
        heap = database.heap(plan.relation_name)
        pool = _scan_buffer(self.context, plan.relation_name, plan.attribute)
        return _index_batches(
            btree.range_scan(), self.context.batch_size, heap, pool
        )


class FilterBTreeScanBatchIterator(BatchPlanIterator):
    """Sargable index scan over the predicate's key range, batched.

    Qualifying RIDs are bulk-fetched per chunk (see
    :class:`BTreeScanBatchIterator`) and the full predicate is
    re-applied over the fetched chunk with one compiled batch closure
    (exact semantics for the exclusive operators).
    """

    def _produce_batches(self):
        database = self.context.database
        plan = self.plan
        btree = database.btree(plan.relation_name, plan.attribute)
        heap = database.heap(plan.relation_name)
        low, high = sargable_key_range(plan.predicate, self.context.bindings)
        pool = _scan_buffer(self.context, plan.relation_name, plan.attribute)
        filter_batch = compile_batch_predicate(
            plan.predicate, self.context.bindings
        )
        return _index_batches(
            btree.range_scan(low, high),
            self.context.batch_size,
            heap,
            pool,
            filter_batch,
        )


class FilterBatchIterator(BatchPlanIterator):
    """Predicate filter: one compiled closure over each input batch."""

    def _produce_batches(self):
        child = build_batch_iterator(self.plan.input, self.context)
        filter_batch = compile_batch_predicate(
            self.plan.predicate, self.context.bindings
        )

        def generate():
            charge = self.io_stats.charge_records
            for batch in child.batches():
                charge(len(batch))
                passed = filter_batch(batch)
                if passed:
                    yield passed

        return generate()


def _column(attribute):
    """``values(batch)``: one attribute's value per record of a batch.

    The attribute's position is resolved once per layout
    (:func:`~repro.executor.predicates.column_position`), so the
    per-record path is one tuple index.
    """
    position = column_position(attribute)

    def values(batch):
        if not batch:
            return []
        i = position(batch)
        return [record._values[i] for record in batch]

    return values


def _joined(pairs, layout, gather):
    """Join outputs on ``layout`` for ``(left, right)`` record pairs.

    Each output's values are ``left._values + right._values`` — the
    field order of ``left.merged_with(right)`` — passed through
    ``gather`` only when the two sides share a name (the right side's
    value wins), as :meth:`~repro.storage.records.Layout.merged` says.
    """
    out = []
    append = out.append
    new = _new
    for left, right in pairs:
        merged = new(Record)
        merged._layout = layout
        values = left._values + right._values
        merged._values = values if gather is None else gather(values)
        merged.rid = None
        append(merged)
    return out


def _compile_extra_predicates(predicates):
    """Closure checking the secondary join predicates, or ``None``.

    The attribute pairs are extracted once so the per-record check is
    plain record indexing.
    """
    pairs = [(p.left_attribute, p.right_attribute) for p in predicates[1:]]
    if not pairs:
        return None

    def holds(merged):
        for left, right in pairs:
            if merged[left] != merged[right]:
                return False
        return True

    return holds


class HashJoinBatchIterator(BatchPlanIterator):
    """Hash join: build in one pass, probe per batch.

    The build table is assembled from the build side's batches before
    any output flows; probing then streams batch-by-batch.  When the
    build side overflows memory the probe side is materialized first
    and the partition-spill I/O the cost model predicts is charged
    (both inputs written and re-read once) — the result is the same,
    only the accounting differs, which is all the simulation needs.
    """

    def _produce_batches(self):
        plan = self.plan
        build_child = build_batch_iterator(plan.build, self.context)
        probe_child = build_batch_iterator(plan.probe, self.context)
        build_attr, probe_attr = join_sides(plan.predicate, plan.build)
        build_keys = _column(build_attr)
        probe_keys = _column(probe_attr)
        extra = _compile_extra_predicates(plan.predicates)
        memory = self.context.memory_pages
        batch_size = self.batch_size

        def generate():
            charge = self.io_stats.charge_records
            table = {}
            build_count = 0
            build_layout = None
            for batch in build_child.batches():
                charge(len(batch))
                build_count += len(batch)
                build_layout = batch[0]._layout
                for record, key in zip(batch, build_keys(batch)):
                    bucket = table.get(key)
                    if bucket is None:
                        table[key] = [record]
                    else:
                        bucket.append(record)
            build_pages = pages_for_records(build_count)
            if build_pages > memory:
                probe_records = []
                for batch in probe_child.batches():
                    charge(len(batch))
                    probe_records.extend(batch)
                spill_pages = build_pages + pages_for_records(len(probe_records))
                self.io_stats.charge_page_writes(spill_pages)
                self.io_stats.charge_page_reads(spill_pages)
                probe_batches = _rebatch(probe_records, batch_size)
            else:
                def charged_batches():
                    for batch in probe_child.batches():
                        charge(len(batch))
                        yield batch

                probe_batches = charged_batches()
            get = table.get
            new = _new
            for batch in probe_batches:
                keys = probe_keys(batch)
                if not table:
                    continue
                # ``_joined`` inline: a pair tuple per match made
                # ``join_exec``'s execution ~9% slower.  Build fields
                # first, the probe side's winning on a shared name.
                layout, gather = build_layout.merged(batch[0]._layout)
                matched = []
                append = matched.append
                for record, key in zip(batch, keys):
                    bucket = get(key)
                    if bucket is not None:
                        values = record._values
                        for match in bucket:
                            merged = new(Record)
                            merged._layout = layout
                            merged._values = (
                                match._values + values
                                if gather is None
                                else gather(match._values + values)
                            )
                            merged.rid = None
                            append(merged)
                if extra is not None:
                    matched = [merged for merged in matched if extra(merged)]
                if matched:
                    charge(len(matched))
                    yield matched

        return generate()


class MergeJoinBatchIterator(BatchPlanIterator):
    """Merge join of two sorted inputs, output re-batched."""

    def _produce_batches(self):
        plan = self.plan
        left_records = _drain(build_batch_iterator(plan.left, self.context))
        right_records = _drain(build_batch_iterator(plan.right, self.context))
        left_attr, right_attr = join_sides(plan.predicate, plan.left)
        extra = _compile_extra_predicates(plan.predicates)
        batch_size = self.batch_size

        def generate():
            charge = self.io_stats.charge_records
            charge(len(left_records) + len(right_records))
            left_keys = _column(left_attr)(left_records)
            right_keys = _column(right_attr)(right_records)
            if not (left_records and right_records):
                return
            layout, gather = left_records[0]._layout.merged(
                right_records[0]._layout
            )
            out = []
            left_index = 0
            right_index = 0
            while left_index < len(left_records) and right_index < len(right_records):
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
                        left_end < len(left_records)
                        and left_keys[left_end] == left_key
                    ):
                        left_end += 1
                    right_end = right_index
                    while (
                        right_end < len(right_records)
                        and right_keys[right_end] == right_key
                    ):
                        right_end += 1
                    block = _joined(
                        [
                            (left_records[i], right_records[j])
                            for i in range(left_index, left_end)
                            for j in range(right_index, right_end)
                        ],
                        layout,
                        gather,
                    )
                    if extra is not None:
                        block = [merged for merged in block if extra(merged)]
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
        outer_child = build_batch_iterator(plan.outer, self.context)
        database = self.context.database
        btree = database.btree(plan.inner_relation, plan.inner_attribute)
        heap = database.heap(plan.inner_relation)
        outer_keys = _column(index_join_outer_attribute(plan))
        pool = _scan_buffer(self.context, plan.inner_relation, plan.inner_attribute)
        residual_mask = None
        residual = None
        if plan.residual_predicate is not None:
            residual_mask = compile_batch_mask(
                plan.residual_predicate, self.context.bindings
            )
            if residual_mask is None:  # unbound operand: defer the error
                residual = compile_predicate(
                    plan.residual_predicate, self.context.bindings
                )
        extra = _compile_extra_predicates(plan.predicates)

        def generate():
            charge = self.io_stats.charge_records
            search_many = btree.search_many
            fetch_many = heap.fetch_many
            for batch in outer_child.batches():
                charge(len(batch))
                rid_lists = search_many(outer_keys(batch))
                outers = []
                rids = []
                for outer_record, matches in zip(batch, rid_lists):
                    if matches:
                        outers.extend([outer_record] * len(matches))
                        rids.extend(matches)
                if not rids:
                    continue
                inners = fetch_many(rids, pool)
                if residual_mask is not None:
                    pairs = compress(zip(outers, inners), residual_mask(inners))
                elif residual is not None:
                    pairs = (
                        (o, i) for o, i in zip(outers, inners) if residual(i)
                    )
                else:
                    pairs = zip(outers, inners)
                out = _joined(pairs, *batch[0]._layout.merged(heap.layout))
                if extra is not None:
                    out = [merged for merged in out if extra(merged)]
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
        attribute = self.plan.attribute
        records = _drain(build_batch_iterator(self.plan.input, self.context))
        batch_size = self.batch_size

        def generate():
            self.io_stats.charge_records(len(records))
            pages = pages_for_records(len(records))
            if pages > self.context.memory_pages:
                self.io_stats.charge_page_writes(pages)
                self.io_stats.charge_page_reads(pages)
            i = records[0]._layout.position(attribute) if records else None
            ordered = sorted(records, key=lambda r: r._values[i])
            yield from _rebatch(ordered, batch_size)

        return generate()


class ProjectBatchIterator(BatchPlanIterator):
    """Attribute projection applied over whole batches."""

    def _produce_batches(self):
        child = build_batch_iterator(self.plan.input, self.context)
        attributes = self.plan.attributes

        def generate():
            charge = self.io_stats.charge_records
            for batch in child.batches():
                charge(len(batch))
                yield [record.project(attributes) for record in batch]

        return generate()


class ChoosePlanBatchIterator(BatchPlanIterator):
    """The choose-plan operator's run-time behaviour.

    At open — before any batch flows — the decision procedure
    re-evaluates the alternatives' cost functions under the context's
    run-time bindings (shared subplans costed once, nested choose-plans
    resolved bottom-up) and opens only the cheapest alternative, whose
    batch stream is returned as-is: choose-plan adds zero per-batch
    overhead.
    """

    def _produce_batches(self):
        chosen = self.choose()
        return build_batch_iterator(chosen, self.context).batches()

    def choose(self):
        """The resolved plan the decision procedure selects."""
        from repro.executor.startup import resolve_dynamic_plan

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
        return _rebatch(self.plan.records, self.batch_size)


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


def join_sides(predicate, left_plan):
    """``(left-side, right-side)`` attributes of a join predicate,
    oriented so the first belongs to ``left_plan``'s relations."""
    left_relations = _plan_relations(left_plan)
    left_rel = predicate.left_attribute.split(".", 1)[0]
    if left_rel in left_relations:
        return predicate.left_attribute, predicate.right_attribute
    return predicate.right_attribute, predicate.left_attribute


def index_join_outer_attribute(plan):
    """The outer-side attribute of an index join's primary predicate."""
    predicate = plan.predicate
    inner_qualified = "%s.%s" % (plan.inner_relation, plan.inner_attribute)
    if predicate.left_attribute == inner_qualified:
        return predicate.right_attribute
    return predicate.left_attribute


def _plan_relations(plan):
    """Base relation names referenced below a plan node."""
    relations = set()
    for node in plan.walk_unique():
        relation = getattr(node, "relation_name", None)
        if relation is not None:
            relations.add(relation)
        inner = getattr(node, "inner_relation", None)
        if inner is not None:
            relations.add(inner)
        if isinstance(node, Materialized):
            relations |= _plan_relations(node.original)
    return relations


def _index_batches(entries, batch_size, heap, pool, filter_batch=None):
    """Heap records for a B-tree ``(key, rid)`` stream, in batches.

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


def _drain(batch_iterator):
    """Materialize a batch stream into one flat record list."""
    records = []
    for batch in batch_iterator.batches():
        records.extend(batch)
    return records


def _rebatch(records, batch_size):
    """Slice a record list into batches of ``batch_size``."""
    return (
        records[start : start + batch_size]
        for start in range(0, len(records), batch_size)
    )
