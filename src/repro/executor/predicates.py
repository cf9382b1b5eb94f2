"""Predicate compilation: one batch kernel per predicate, not per record.

The interpreted path (``SelectionPredicate.evaluate``) walks the
predicate structure for every record: attribute lookup on the
comparison, enum dispatch on the operator, operand resolution against
the bindings.  Bindings are fixed for the lifetime of one execution,
and an operator's input layout is fixed when the operator opens, so all
of that is done once at open: the attribute's position on the layout
(the exact name, else its unique suffix match — ``Record`` indexing's
rule) and the operand's value.  What is left on the per-record path is
one comprehension over the batch's value tuples, ``t[i] < v``.

Compilation preserves the interpreted semantics exactly — the same
comparison on the same resolved operand value — including its errors:
an attribute the layout lacks or matches ambiguously, or an unbound
user variable, raises the interpreted path's
:class:`~repro.common.errors.ExecutionError` only when the kernel first
meets a record (:func:`deferred`), so an operator whose input is empty
never touches its predicate.
"""

from operator import itemgetter

from repro.algebra.expressions import ComparisonOp
from repro.common.errors import ExecutionError

#: ``factory(i, v) -> kernel(rows)``, one comprehension per operator
#: with the comparison written inline, so the per-record path is one
#: tuple index and one compare — no ``operator.lt`` call.  Filters keep
#: the qualifying tuples; masks yield one bool per tuple for callers
#: that filter a parallel list.
_FILTER_KERNELS = {
    ComparisonOp.EQ: lambda i, v: lambda rows: [t for t in rows if t[i] == v],
    ComparisonOp.NE: lambda i, v: lambda rows: [t for t in rows if t[i] != v],
    ComparisonOp.LT: lambda i, v: lambda rows: [t for t in rows if t[i] < v],
    ComparisonOp.LE: lambda i, v: lambda rows: [t for t in rows if t[i] <= v],
    ComparisonOp.GT: lambda i, v: lambda rows: [t for t in rows if t[i] > v],
    ComparisonOp.GE: lambda i, v: lambda rows: [t for t in rows if t[i] >= v],
}
_MASK_KERNELS = {
    ComparisonOp.EQ: lambda i, v: lambda rows: [t[i] == v for t in rows],
    ComparisonOp.NE: lambda i, v: lambda rows: [t[i] != v for t in rows],
    ComparisonOp.LT: lambda i, v: lambda rows: [t[i] < v for t in rows],
    ComparisonOp.LE: lambda i, v: lambda rows: [t[i] <= v for t in rows],
    ComparisonOp.GT: lambda i, v: lambda rows: [t[i] > v for t in rows],
    ComparisonOp.GE: lambda i, v: lambda rows: [t[i] >= v for t in rows],
}


def deferred(error):
    """A batch function standing in for one that could not be compiled:
    it returns ``[]`` for an empty batch and raises ``error``'s
    :class:`~repro.common.errors.ExecutionError` on a non-empty one."""
    message = str(error)

    def fail(rows):
        if rows:
            raise ExecutionError(message)
        return []

    return fail


def column(layout, attribute):
    """``values(rows) -> list``: ``attribute``'s value in each tuple of a
    batch on ``layout``; :func:`deferred` when it does not resolve."""
    try:
        value = itemgetter(layout.position(attribute))
    except ExecutionError as error:
        return deferred(error)
    return lambda rows: list(map(value, rows))


def compile_batch_predicate(predicate, bindings, layout):
    """Compile a predicate into ``filter_batch(rows) -> rows``.

    The vectorized filter path: one call filters a whole batch of value
    tuples on ``layout`` in a single comprehension specialised to the
    predicate's operator.  ``predicate`` is anything with a
    ``comparison`` attribute
    (:class:`~repro.algebra.expressions.SelectionPredicate`) or a bare
    :class:`~repro.algebra.expressions.Comparison`.
    """
    return _compile(predicate, bindings, layout, _FILTER_KERNELS)


def compile_batch_mask(predicate, bindings, layout):
    """Compile a predicate into ``mask_batch(rows) -> [bool, ...]``.

    For operators that filter a list running parallel to ``rows`` (the
    index join's inner tuples); otherwise as
    :func:`compile_batch_predicate`.
    """
    return _compile(predicate, bindings, layout, _MASK_KERNELS)


def _compile(predicate, bindings, layout, kernels):
    comparison = getattr(predicate, "comparison", predicate)
    try:
        # The interpreted path's order: the record's field, then the operand.
        position = layout.position(comparison.attribute)
        value = comparison.operand.resolve(bindings)
    except ExecutionError as error:
        return deferred(error)
    return kernels[comparison.op](position, value)
