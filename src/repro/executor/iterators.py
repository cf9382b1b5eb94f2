"""Volcano iterator implementations of the physical algebra.

Every operator is an iterator with ``open`` / ``next`` (Python
iteration) / ``close``, the protocol of the Volcano execution engine.
Operators charge their simulated I/O and CPU work to the database's
:class:`~repro.storage.iostats.IOStatistics`, so executed plans can be
compared against the optimizer's cost predictions.
"""

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
from repro.executor.predicates import compile_predicate


def build_iterator(plan, context):
    """Construct the iterator tree for a physical plan DAG."""
    if isinstance(plan, FileScan):
        return FileScanIterator(plan, context)
    if isinstance(plan, BTreeScan):
        return BTreeScanIterator(plan, context)
    if isinstance(plan, FilterBTreeScan):
        return FilterBTreeScanIterator(plan, context)
    if isinstance(plan, Filter):
        return FilterIterator(plan, context)
    if isinstance(plan, HashJoin):
        return HashJoinIterator(plan, context)
    if isinstance(plan, MergeJoin):
        return MergeJoinIterator(plan, context)
    if isinstance(plan, IndexJoin):
        return IndexJoinIterator(plan, context)
    if isinstance(plan, Project):
        return ProjectIterator(plan, context)
    if isinstance(plan, Sort):
        return SortIterator(plan, context)
    if isinstance(plan, ChoosePlan):
        return ChoosePlanIterator(plan, context)
    if isinstance(plan, Materialized):
        return MaterializedIterator(plan, context)
    raise ExecutionError("no iterator for operator %r" % plan)


class PlanIterator:
    """Base class implementing the open/next/close protocol."""

    def __init__(self, plan, context):
        self.plan = plan
        self.context = context
        self._stream = None

    def open(self):
        """Prepare the iterator; idempotent.

        With a tracer attached to the context the record stream is
        wrapped in a counting span; without one (the default) this is
        a single ``is None`` test and the per-record path is untouched.
        Checks the context deadline, so an expired query cancels before
        any operator does work (blocking operators like sort and hash
        join do all their work at first next, after open).
        """
        if self._stream is None:
            deadline = self.context.deadline
            if deadline is not None:
                deadline.check()
            tracer = self.context.tracer
            if tracer is None:
                self._stream = self._produce()
            else:
                self._stream = tracer.instrument(self)
        return self

    def __iter__(self):
        self.open()
        return self._stream

    def next(self):
        """Produce the next record or raise ``StopIteration``."""
        self.open()
        return next(self._stream)

    def close(self):
        """Release resources."""
        self._stream = None

    def _produce(self):
        raise NotImplementedError

    @property
    def io_stats(self):
        """Shared I/O accounting."""
        return self.context.io_stats


class FileScanIterator(PlanIterator):
    """Sequential heap scan."""

    def _produce(self):
        heap = self.context.database.heap(self.plan.relation_name)
        return heap.scan(self.context.buffer_pool)


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


class BTreeScanIterator(PlanIterator):
    """Full B-tree scan in key order with per-record heap fetches."""

    def _produce(self):
        database = self.context.database
        btree = database.btree(self.plan.relation_name, self.plan.attribute)
        heap = database.heap(self.plan.relation_name)
        pool = _scan_buffer(
            self.context, self.plan.relation_name, self.plan.attribute
        )

        def generate():
            for _key, rid in btree.range_scan():
                yield heap.fetch(rid, pool)

        return generate()


class FilterBTreeScanIterator(PlanIterator):
    """Sargable index scan: range-restricted B-tree traversal.

    The key range is derived from the predicate's comparison with the
    user variable resolved from the bindings; records are re-checked
    against the full predicate after the fetch (exact semantics for
    the exclusive operators).
    """

    def _produce(self):
        database = self.context.database
        plan = self.plan
        btree = database.btree(plan.relation_name, plan.attribute)
        heap = database.heap(plan.relation_name)
        low, high = sargable_key_range(plan.predicate, self.context.bindings)
        pool = _scan_buffer(
            self.context, plan.relation_name, plan.attribute
        )

        qualifies = compile_predicate(plan.predicate, self.context.bindings)

        def generate():
            for _key, rid in btree.range_scan(low, high):
                record = heap.fetch(rid, pool)
                if qualifies(record):
                    yield record

        return generate()


class FilterIterator(PlanIterator):
    """Predicate filter over any input.

    The predicate is compiled once at open into a single closure
    (operand resolved, operator dispatched), so the per-record path is
    one call instead of a walk over the predicate structures.
    """

    def _produce(self):
        child = build_iterator(self.plan.input, self.context)
        qualifies = compile_predicate(self.plan.predicate, self.context.bindings)

        def generate():
            charge = self.io_stats.charge_records
            for record in child:
                charge(1)
                if qualifies(record):
                    yield record

        return generate()


class HashJoinIterator(PlanIterator):
    """Hash join building on the left input.

    When the build table exceeds available memory the iterator charges
    the partition-spill I/O the cost model predicts (both inputs
    written and re-read once), then proceeds — the result is the same,
    only the accounting differs, which is all the simulation needs.
    """

    def _produce(self):
        plan = self.plan
        build_iter = build_iterator(plan.build, self.context)
        probe_iter = build_iterator(plan.probe, self.context)
        build_attr, probe_attr = self._sides()

        def generate():
            table = {}
            build_count = 0
            for record in build_iter:
                self.io_stats.charge_records(1)
                build_count += 1
                table.setdefault(record[build_attr], []).append(record)
            build_pages = pages_for_records(build_count)
            memory = self.context.memory_pages
            probe_records = []
            for record in probe_iter:
                self.io_stats.charge_records(1)
                probe_records.append(record)
            if build_pages > memory:
                spill_pages = build_pages + pages_for_records(len(probe_records))
                self.io_stats.charge_page_writes(spill_pages)
                self.io_stats.charge_page_reads(spill_pages)
            for record in probe_records:
                for match in table.get(record[probe_attr], ()):
                    merged = match.merged_with(record)
                    if _extra_predicates_hold(merged, plan.predicates):
                        self.io_stats.charge_records(1)
                        yield merged

        return generate()

    def _sides(self):
        """Which side of the primary predicate feeds build vs probe."""
        return join_sides(self.plan.predicate, self.plan.build)


class MergeJoinIterator(PlanIterator):
    """Merge join of two sorted inputs with duplicate handling."""

    def _produce(self):
        plan = self.plan
        left_records = list(build_iterator(plan.left, self.context))
        right_records = list(build_iterator(plan.right, self.context))
        left_attr, right_attr = self._sides()

        def generate():
            self.io_stats.charge_records(len(left_records) + len(right_records))
            left_index = 0
            right_index = 0
            while left_index < len(left_records) and right_index < len(right_records):
                left_key = left_records[left_index][left_attr]
                right_key = right_records[right_index][right_attr]
                if left_key < right_key:
                    left_index += 1
                elif left_key > right_key:
                    right_index += 1
                else:
                    # Gather the duplicate blocks on both sides.
                    left_end = left_index
                    while (
                        left_end < len(left_records)
                        and left_records[left_end][left_attr] == left_key
                    ):
                        left_end += 1
                    right_end = right_index
                    while (
                        right_end < len(right_records)
                        and right_records[right_end][right_attr] == right_key
                    ):
                        right_end += 1
                    for i in range(left_index, left_end):
                        for j in range(right_index, right_end):
                            merged = left_records[i].merged_with(right_records[j])
                            if _extra_predicates_hold(merged, plan.predicates):
                                self.io_stats.charge_records(1)
                                yield merged
                    left_index = left_end
                    right_index = right_end

        return generate()

    def _sides(self):
        return join_sides(self.plan.predicate, self.plan.left)


class IndexJoinIterator(PlanIterator):
    """Index nested-loop join probing the inner relation's B-tree."""

    def _produce(self):
        plan = self.plan
        outer_iter = build_iterator(plan.outer, self.context)
        database = self.context.database
        btree = database.btree(plan.inner_relation, plan.inner_attribute)
        heap = database.heap(plan.inner_relation)
        outer_attr = self._outer_attribute()
        bindings = self.context.bindings
        pool = _scan_buffer(
            self.context, plan.inner_relation, plan.inner_attribute
        )

        def generate():
            for outer_record in outer_iter:
                self.io_stats.charge_records(1)
                for rid in btree.search(outer_record[outer_attr]):
                    inner_record = heap.fetch(rid, pool)
                    if plan.residual_predicate is not None:
                        if not plan.residual_predicate.evaluate(
                            inner_record, bindings
                        ):
                            continue
                    merged = outer_record.merged_with(inner_record)
                    if _extra_predicates_hold(merged, plan.predicates):
                        self.io_stats.charge_records(1)
                        yield merged

        return generate()

    def _outer_attribute(self):
        return index_join_outer_attribute(self.plan)


class SortIterator(PlanIterator):
    """Sort enforcer: materializes and orders its input.

    Inputs larger than memory charge external-merge I/O (one partition
    pass) so the simulation matches the cost model's shape.
    """

    def _produce(self):
        attribute = self.plan.attribute
        records = list(build_iterator(self.plan.input, self.context))

        def generate():
            self.io_stats.charge_records(len(records))
            pages = pages_for_records(len(records))
            if pages > self.context.memory_pages:
                self.io_stats.charge_page_writes(pages)
                self.io_stats.charge_page_reads(pages)
            for record in sorted(records, key=lambda r: r[attribute]):
                yield record

        return generate()


class ProjectIterator(PlanIterator):
    """Attribute projection over any input."""

    def _produce(self):
        child = build_iterator(self.plan.input, self.context)
        attributes = self.plan.attributes

        def generate():
            for record in child:
                self.io_stats.charge_records(1)
                yield record.project(attributes)

        return generate()


class ChoosePlanIterator(PlanIterator):
    """The choose-plan operator's run-time behaviour.

    At open, the decision procedure re-evaluates the alternatives'
    cost functions under the context's run-time bindings (shared
    subplans costed once, nested choose-plans resolved bottom-up) and
    opens only the cheapest alternative.
    """

    def _produce(self):
        chosen = self.choose()
        return iter(build_iterator(chosen, self.context))

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


class MaterializedIterator(PlanIterator):
    """Replays a run-time temporary result (paper Section 7)."""

    def _produce(self):
        return iter(self.plan.records)


def _extra_predicates_hold(merged, predicates):
    """Check the secondary join predicates against a merged record."""
    for predicate in predicates[1:]:
        if merged[predicate.left_attribute] != merged[predicate.right_attribute]:
            return False
    return True


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
