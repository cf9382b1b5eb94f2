"""Predicate compilation: one closure per predicate, not per record.

The interpreted path (``SelectionPredicate.evaluate``) walks the
predicate structure for every record: attribute lookup on the
comparison, enum dispatch on the operator, operand resolution against
the bindings.  Bindings are fixed for the lifetime of one execution,
so all of that can be done once at iterator *open* time, leaving a
single closure call (or, in the vectorized executor, one closure
applied inside a list comprehension) on the per-record path.

Compilation preserves the interpreted semantics exactly — the same
comparison on the same resolved operand value — including the error
on unbound user variables, which compiled predicates defer to the
first record so that an operator whose input is empty never touches
its (possibly unbound) predicate, just like the interpreted path.
"""

import operator

from repro.algebra.expressions import ComparisonOp
from repro.common.errors import ExecutionError

_OP_FUNCTIONS = {
    ComparisonOp.EQ: operator.eq,
    ComparisonOp.NE: operator.ne,
    ComparisonOp.LT: operator.lt,
    ComparisonOp.LE: operator.le,
    ComparisonOp.GT: operator.gt,
    ComparisonOp.GE: operator.ge,
}


def compile_predicate(predicate, bindings):
    """Compile a selection predicate into ``closure(record) -> bool``.

    ``predicate`` is anything with a ``comparison`` attribute
    (:class:`~repro.algebra.expressions.SelectionPredicate`) or a bare
    :class:`~repro.algebra.expressions.Comparison`.  The operand is
    resolved against ``bindings`` eagerly when it is bound; an unbound
    user variable yields a closure that raises the interpreted path's
    :class:`~repro.common.errors.ExecutionError` on first use.
    """
    comparison = getattr(predicate, "comparison", predicate)
    attribute = comparison.attribute
    compare = _OP_FUNCTIONS[comparison.op]
    try:
        value = comparison.operand.resolve(bindings)
    except ExecutionError:
        operand = comparison.operand

        def unbound(record):
            operand.resolve(bindings)  # raises the unbound-variable error
            raise ExecutionError(
                "unreachable: unbound operand %r resolved" % (operand,)
            )

        return unbound

    def closure(record):
        return compare(record[attribute], value)

    return closure


#: The batch kernels, ``kernel(records, position, value)``: one
#: comprehension per operator with the comparison written inline, so
#: the per-record path is one tuple index and one compare — no
#: ``operator.lt`` call.  Filters keep the qualifying records; masks
#: yield one bool per record for callers that filter a parallel list.
_FILTER_KERNELS = {
    ComparisonOp.EQ: lambda rs, i, v: [r for r in rs if r._values[i] == v],
    ComparisonOp.NE: lambda rs, i, v: [r for r in rs if r._values[i] != v],
    ComparisonOp.LT: lambda rs, i, v: [r for r in rs if r._values[i] < v],
    ComparisonOp.LE: lambda rs, i, v: [r for r in rs if r._values[i] <= v],
    ComparisonOp.GT: lambda rs, i, v: [r for r in rs if r._values[i] > v],
    ComparisonOp.GE: lambda rs, i, v: [r for r in rs if r._values[i] >= v],
}
_MASK_KERNELS = {
    ComparisonOp.EQ: lambda rs, i, v: [r._values[i] == v for r in rs],
    ComparisonOp.NE: lambda rs, i, v: [r._values[i] != v for r in rs],
    ComparisonOp.LT: lambda rs, i, v: [r._values[i] < v for r in rs],
    ComparisonOp.LE: lambda rs, i, v: [r._values[i] <= v for r in rs],
    ComparisonOp.GT: lambda rs, i, v: [r._values[i] > v for r in rs],
    ComparisonOp.GE: lambda rs, i, v: [r._values[i] >= v for r in rs],
}


def column_position(attribute):
    """``position(records) -> int``: where ``attribute`` sits in a batch.

    Every batch an operator emits shares one
    :class:`~repro.storage.records.Layout`, so the position is read off
    the first record's layout and resolved (exact name, else its unique
    suffix match — the semantics of ``Record`` indexing) only when the
    layout differs from the last batch's: once per operator and layout.
    The batch must be non-empty.
    """
    layout = position = None

    def resolve(records):
        nonlocal layout, position
        first = records[0]._layout
        if first is not layout:
            position = first.position(attribute)
            layout = first
        return position

    return resolve


def compile_batch_predicate(predicate, bindings):
    """Compile a predicate into ``filter_batch(records) -> records``.

    The vectorized filter path: one call filters a whole batch in a
    single comprehension specialised to the predicate's operator,
    indexing each record's values tuple at the attribute's position
    (:func:`column_position`) — no method dispatch, no name lookup per
    record.  A batch's records share one layout.
    """
    comparison = getattr(predicate, "comparison", predicate)
    try:
        value = comparison.operand.resolve(bindings)
    except ExecutionError:
        operand = comparison.operand

        def unbound(records):
            operand.resolve(bindings)  # raises the unbound-variable error
            raise ExecutionError(
                "unreachable: unbound operand %r resolved" % (operand,)
            )

        return unbound

    kernel = _FILTER_KERNELS[comparison.op]
    position = column_position(comparison.attribute)

    def filter_batch(records):
        if not records:
            return []
        return kernel(records, position(records), value)

    return filter_batch


def compile_batch_mask(predicate, bindings):
    """Compile a predicate into ``mask_batch(records) -> [bool, ...]``.

    For vectorized operators that filter a list running parallel to
    ``records`` (the index join's inner records).  The same kernels and
    position lookup as :func:`compile_batch_predicate`.  Returns
    ``None`` when the operand is unbound so callers can fall back to
    :func:`compile_predicate`, whose closure raises the interpreted
    path's error on first use.
    """
    comparison = getattr(predicate, "comparison", predicate)
    try:
        value = comparison.operand.resolve(bindings)
    except ExecutionError:
        return None
    kernel = _MASK_KERNELS[comparison.op]
    position = column_position(comparison.attribute)

    def mask_batch(records):
        if not records:
            return []
        return kernel(records, position(records), value)

    return mask_batch
