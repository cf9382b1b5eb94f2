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

**Integer bounds for integer columns.**  Host variables are bound as
floats (a selectivity times a domain) and stored values are ``int`` values,
so ``t[i] < v`` would be a mixed ``int < float`` compare on every
record.  When the attribute's position is in the layout's
:attr:`~repro.storage.records.Layout.integral` set, a finite ``float``
operand is replaced at compile time by the integer bound that admits
exactly the same integers:

=============  ==================  =========================================
operator       bound               why it is exact for an integer ``x``
=============  ==================  =========================================
``<``, ``>=``  ``ceil(v)``         ``x < v`` iff ``x < ceil(v)``
``<=``, ``>``  ``floor(v)``        ``x <= v`` iff ``x <= floor(v)``
``=``, ``<>``  ``int(v)``          only when ``v.is_integer()``
=============  ==================  =========================================

Python compares an ``int`` with a ``float`` exactly (no rounding of the
``int``), and ``ceil`` / ``floor`` of a finite float are exact ints,
so each rewritten kernel admits the same tuples in the same order.  NaN,
±inf and a non-integral equality operand keep the float kernel.  The
rewrite is exact only where every value at the position is an exact
``int`` — a ``bool``, a ``float`` or a ``str`` there keeps the float
path — which the heap file records as it loads (``HeapFile.bulk_load``)
and publishes on its own layout only; a tuple on a heap's layout is
always one of that heap's stored tuples.

What the mixed compare costs, per record of ``[t for t in rows if
t[i] < v]`` over 1,000 stored tuples:

=======  =======================================  ==================
CPython  ``int < float`` against ``int < int``    ratio
=======  =======================================  ==================
3.10     —                                        1.35x
3.11     73 vs 36 ns; 58 vs 25 ns on an Intel     2.0x; 2.3x
         Xeon
3.12     —                                        2.3x
3.13     —                                        3.3x
=======  =======================================  ==================

B-tree key bounds (``vectorized.sargable_key_range``, ``range_scan``,
``midquery.count_qualifying``) keep the resolved value: an inclusive
``high = ceil(5.5)`` would fetch key 6 and change ``pages_read``.  The
index scan re-applies the predicate with a kernel from here, which is
where the integer bound pays.
"""

from math import ceil, floor, isfinite
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


def _same_integer(value):
    """``value`` as an ``int`` when it is integral, else unchanged: an
    ``int`` column equals a non-integral float nowhere, and that
    kernel is left as it is."""
    return int(value) if value.is_integer() else value


#: The integer bound admitting exactly the integers a finite float
#: operand admits, per operator (see the module doc).
_INTEGER_BOUNDS = {
    ComparisonOp.LT: ceil,
    ComparisonOp.GE: ceil,
    ComparisonOp.LE: floor,
    ComparisonOp.GT: floor,
    ComparisonOp.EQ: _same_integer,
    ComparisonOp.NE: _same_integer,
}


def _compile(predicate, bindings, layout, kernels):
    comparison = getattr(predicate, "comparison", predicate)
    try:
        # The interpreted path's order: the record's field, then the operand.
        position = layout.position(comparison.attribute)
        value = comparison.operand.resolve(bindings)
    except ExecutionError as error:
        return deferred(error)
    op = comparison.op
    if type(value) is float and position in layout.integral and isfinite(value):
        value = _INTEGER_BOUNDS[op](value)
    return kernels[op](position, value)
