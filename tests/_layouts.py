"""Shared test helper: a tracer that watches every operator's layouts.

Batch kernels read an attribute's position off a batch's first record
(``repro.executor.predicates.column_position``), which is only right
when every record of the batch shares one
:class:`~repro.storage.records.Layout`.  The engine promises more:
every batch an operator emits shares one layout object.
:class:`LayoutRecorder` collects, per operator, the layouts its batches
held, so a test can hold that promise over whole plans.
"""

from repro.observability import Tracer


class LayoutRecorder(Tracer):
    """A :class:`~repro.observability.Tracer` that also records, per
    operator iterator, the set of layouts its emitted records held."""

    def __init__(self):
        super().__init__()
        #: operator iterator -> set of layouts its batches held
        self.layouts = {}

    def instrument_batches(self, iterator):
        stream = super().instrument_batches(iterator)
        seen = self.layouts.setdefault(iterator, set())

        def watched():
            for batch in stream:
                seen.update(record._layout for record in batch)
                yield batch

        return watched()

    def emitting(self):
        """Operators that emitted at least one record."""
        return [iterator.plan for iterator, seen in self.layouts.items() if seen]

    def mixed(self):
        """Operators whose records held more than one layout object."""
        return [
            iterator.plan for iterator, seen in self.layouts.items() if len(seen) > 1
        ]
