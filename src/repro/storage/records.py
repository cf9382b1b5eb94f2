"""Records: a values tuple over a layout shared by every record of a schema.

A record is stored in a heap file under a record identifier (RID) of
``(page_number, slot)``.  Its fields are a tuple of values read through
a :class:`Layout` — the qualified attribute names in field order plus
a name → position map — which every record of the same schema shares.

The execution engine moves the bare values tuples.  A heap file owns
one layout for its relation, and every operator fixes the layout of its
output from its inputs' when it opens, so a kernel resolves an
attribute's position once per operator and then indexes ``t[i]``.
:class:`Record` objects are made only at the API boundary: a heap
file's ``scan`` / ``fetch`` / ``all_records``, and result assembly
(:meth:`Layout.records`).

Derived layouts are memoized on the layout they are derived from, so
the same pair of inputs always yields the same layout *object*: a join
output is ``left + right`` on the left layout's merge with the right
one (a gather over that concatenation only when the two share a name),
and a projection is a gather on the source layout's projection.
"""

from operator import itemgetter

from repro.common.errors import ExecutionError


def _gather(positions):
    """``gather(values) -> tuple`` picking ``positions`` in order.

    ``itemgetter`` of a single position returns the bare value, not a
    1-tuple, so zero or one positions take the generic path.
    """
    if len(positions) > 1:
        return itemgetter(*positions)
    return lambda values: tuple(values[i] for i in positions)


class Layout:
    """Field names in order, their positions, and the layouts derived
    from them (merges and projections, each memoized here)."""

    __slots__ = ("names", "positions", "integral", "_suffix", "_merged", "_projected")

    def __init__(self, names):
        self.names = tuple(names)
        self.positions = {name: i for i, name in enumerate(self.names)}
        #: Positions at which every tuple on this layout holds an exact
        #: ``int`` (``type(v) is int``, so not a ``bool``).  Only a heap
        #: file's own layout claims any (see
        #: :meth:`~repro.storage.heapfile.HeapFile.bulk_load`): merged,
        #: projected and hand-built layouts claim none.
        self.integral = frozenset()
        self._suffix = {}
        self._merged = {}
        self._projected = {}

    def position(self, name):
        """The position of ``name``: exact, else its unique suffix match.

        ``"a"`` resolves ``"R.a"`` and ``"R.a"`` resolves ``"a"``;
        a name matching no field or several raises
        :class:`~repro.common.errors.ExecutionError`.
        """
        try:
            return self.positions[name]
        except KeyError:
            pass
        try:
            matches = self._suffix[name]
        except KeyError:
            matches = self._suffix.setdefault(
                name,
                tuple(
                    i
                    for i, key in enumerate(self.names)
                    if key.endswith("." + name) or name.endswith("." + key)
                ),
            )
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise ExecutionError(
                "record has no field %r (fields: %s)" % (name, sorted(self.names))
            )
        raise ExecutionError("field reference %r is ambiguous" % name)

    def merged(self, right):
        """``(layout, gather)`` of a record merged with one on ``right``.

        The names of ``{**left, **right}``: this layout's, then
        ``right``'s not already present.  ``gather`` is ``None`` when
        no name is shared — the merged values are the concatenation
        ``left + right`` — and otherwise picks the merged values out of
        that concatenation, taking ``right``'s value for a shared name.
        """
        try:
            return self._merged[right]
        except KeyError:
            pass
        positions = self.positions
        if positions.keys().isdisjoint(right.positions):
            entry = (Layout(self.names + right.names), None)
        else:
            width = len(self.names)
            names = self.names + tuple(
                name for name in right.names if name not in positions
            )
            entry = (
                Layout(names),
                _gather(
                    [
                        width + right.positions[name]
                        if name in right.positions
                        else positions[name]
                        for name in names
                    ]
                ),
            )
        return self._merged.setdefault(right, entry)

    def projected(self, names):
        """``(layout, gather)`` keeping ``names`` (first occurrence each)."""
        key = tuple(names)
        try:
            return self._projected[key]
        except KeyError:
            pass
        kept = tuple(dict.fromkeys(key))
        entry = (Layout(kept), _gather([self.position(name) for name in kept]))
        return self._projected.setdefault(key, entry)

    def record(self, values, rid=None):
        """A :class:`Record` on this layout."""
        record = _new(Record)
        record._layout = self
        record._values = tuple(values)
        record.rid = rid
        return record

    def records(self, rows):
        """One :class:`Record` on this layout per values tuple of ``rows``."""
        out = []
        append = out.append
        new = _new
        cls = Record
        for values in rows:
            record = new(cls)
            record._layout = self
            record._values = values
            record.rid = None
            append(record)
        return out

    def __repr__(self):
        return "Layout(%s)" % ", ".join(self.names)


class Record:
    """An immutable mapping from qualified attribute names to values."""

    __slots__ = ("_layout", "_values", "rid")

    def __init__(self, fields, rid=None):
        fields = dict(fields)
        self._layout = Layout(fields)
        self._values = tuple(fields.values())
        self.rid = rid

    def __getitem__(self, name):
        try:
            return self._values[self._layout.positions[name]]
        except KeyError:
            # Suffix match for unqualified lookups of qualified fields
            # (and vice versa).
            return self._values[self._layout.position(name)]

    def get(self, name, default=None):
        """Like ``dict.get`` with the same suffix-matching as indexing."""
        try:
            return self[name]
        except ExecutionError:
            return default

    def __contains__(self, name):
        try:
            self._layout.position(name)
        except ExecutionError:
            return False
        return True

    def keys(self):
        """Field names present in the record, in field order."""
        return self._layout.positions.keys()

    def as_dict(self):
        """A plain dict copy of the fields, in field order."""
        return dict(zip(self._layout.names, self._values))

    def merged_with(self, other):
        """A new record holding this record's and ``other``'s fields.

        Field order and values are those of ``{**self, **other}``:
        ``other`` wins on a shared name.
        """
        layout, gather = self._layout.merged(other._layout)
        values = self._values + other._values
        return layout.record(values if gather is None else gather(values))

    def project(self, names):
        """A new record keeping only the named fields."""
        layout, gather = self._layout.projected(names)
        return layout.record(gather(self._values))

    def __eq__(self, other):
        if not isinstance(other, Record):
            return NotImplemented
        if (
            self._layout is other._layout
            or self._layout.names == other._layout.names
        ):
            return self._values == other._values
        return self.as_dict() == other.as_dict()

    def __hash__(self):
        return hash(tuple(sorted(zip(self._layout.names, self._values))))

    def __repr__(self):
        inner = ", ".join(
            "%s=%r" % item for item in sorted(zip(self._layout.names, self._values))
        )
        return "Record(%s)" % inner


_new = Record.__new__
