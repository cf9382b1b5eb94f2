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
        # Exact-key access first; fall back to Record indexing (which
        # suffix-matches unqualified names) only when the key misses.
        try:
            return compare(record._fields[attribute], value)
        except KeyError:
            return compare(record[attribute], value)

    return closure


#: The batch kernels, ``kernel(records, attribute, value)``: one
#: comprehension per operator with the comparison written inline, so
#: the per-record path is one exact-key dict lookup and one compare —
#: no ``operator.lt`` call.  Filters keep the qualifying records; masks
#: yield one bool per record for callers that filter a parallel list.
_FILTER_KERNELS = {
    ComparisonOp.EQ: lambda rs, a, v: [r for r in rs if r._fields[a] == v],
    ComparisonOp.NE: lambda rs, a, v: [r for r in rs if r._fields[a] != v],
    ComparisonOp.LT: lambda rs, a, v: [r for r in rs if r._fields[a] < v],
    ComparisonOp.LE: lambda rs, a, v: [r for r in rs if r._fields[a] <= v],
    ComparisonOp.GT: lambda rs, a, v: [r for r in rs if r._fields[a] > v],
    ComparisonOp.GE: lambda rs, a, v: [r for r in rs if r._fields[a] >= v],
}
_MASK_KERNELS = {
    ComparisonOp.EQ: lambda rs, a, v: [r._fields[a] == v for r in rs],
    ComparisonOp.NE: lambda rs, a, v: [r._fields[a] != v for r in rs],
    ComparisonOp.LT: lambda rs, a, v: [r._fields[a] < v for r in rs],
    ComparisonOp.LE: lambda rs, a, v: [r._fields[a] <= v for r in rs],
    ComparisonOp.GT: lambda rs, a, v: [r._fields[a] > v for r in rs],
    ComparisonOp.GE: lambda rs, a, v: [r._fields[a] >= v for r in rs],
}


def compile_batch_predicate(predicate, bindings):
    """Compile a predicate into ``filter_batch(records) -> records``.

    The vectorized filter path: one call filters a whole batch in a
    single comprehension specialised to the predicate's operator.  The
    fast path indexes each record's exact field dict directly (no
    method dispatch, no suffix matching); if any record lacks the
    exact qualified key the whole batch falls back to
    :class:`~repro.storage.records.Record` indexing, which performs
    the interpreted path's suffix matching.  Predicates are pure, so
    re-filtering the batch on fallback is side-effect free.
    """
    comparison = getattr(predicate, "comparison", predicate)
    attribute = comparison.attribute
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

    exact = _FILTER_KERNELS[comparison.op]

    def filter_batch(records):
        try:
            return exact(records, attribute, value)
        except KeyError:
            compare = _OP_FUNCTIONS[comparison.op]
            return [
                record for record in records if compare(record[attribute], value)
            ]

    return filter_batch


def compile_batch_mask(predicate, bindings):
    """Compile a predicate into ``mask_batch(records) -> [bool, ...]``.

    For vectorized operators that filter a list running parallel to
    ``records`` (the index join's outer records).  Same exact-key fast
    path and whole-batch suffix-matching fallback as
    :func:`compile_batch_predicate`.  Returns ``None`` when the
    operand is unbound so callers can fall back to
    :func:`compile_predicate`, whose closure raises the interpreted
    path's error on first use.
    """
    comparison = getattr(predicate, "comparison", predicate)
    try:
        value = comparison.operand.resolve(bindings)
    except ExecutionError:
        return None
    attribute = comparison.attribute
    exact = _MASK_KERNELS[comparison.op]

    def mask_batch(records):
        try:
            return exact(records, attribute, value)
        except KeyError:
            compare = _OP_FUNCTIONS[comparison.op]
            return [compare(record[attribute], value) for record in records]

    return mask_batch
