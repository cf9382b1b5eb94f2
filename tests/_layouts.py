"""Shared test helper: a tracer that watches every operator's output.

Every operator fixes one :class:`~repro.storage.records.Layout` for its
output when it opens, and batch kernels index the tuples it emits by
positions resolved on that layout — which is only right when every
tuple the operator emits is a plain values tuple as wide as the
layout.  :class:`LayoutRecorder` collects, per operator, the shapes of
the rows its batches held, so a test can hold that promise over whole
plans.
"""

from repro.observability import Tracer
from repro.storage.records import Layout


class LayoutRecorder(Tracer):
    """A :class:`~repro.observability.Tracer` that also records, per
    operator iterator, the ``(type, width)`` of every row it emitted."""

    def __init__(self):
        super().__init__()
        #: operator iterator -> set of (row type, row width) it emitted,
        #: in the order the iterators opened (the root first)
        self.shapes = {}

    def instrument_batches(self, iterator):
        seen = self.shapes.setdefault(iterator, set())  # before its inputs
        stream = super().instrument_batches(iterator)

        def watched():
            for batch in stream:
                seen.update((type(row), len(row)) for row in batch)
                yield batch

        return watched()

    def root(self):
        """The first operator opened: the plan root."""
        return next(iter(self.shapes))

    def emitting(self):
        """Operators that emitted at least one row."""
        return [iterator.plan for iterator, seen in self.shapes.items() if seen]

    def mismatched(self):
        """Operators without a layout, or that emitted a row other than a
        values tuple as wide as their layout."""
        return [
            iterator.plan
            for iterator, seen in self.shapes.items()
            if not isinstance(iterator.layout, Layout)
            or seen - {(tuple, len(iterator.layout.names))}
        ]
