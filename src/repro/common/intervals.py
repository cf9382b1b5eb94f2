"""Closed numeric intervals with the paper's comparison semantics.

An :class:`Interval` ``[lower, upper]`` models an uncertain quantity
whose true value is only known to lie within the bounds.  The paper
(Section 5) uses intervals for cost, selectivity, cardinality, and
available memory.  The operations implemented here follow the paper:

* addition adds both bounds;
* branch-and-bound pruning may count **only the lower bound** of a
  committed cost, "since we can only be sure that the lower-bound cost
  will be used up" (the optimizer compares ``.lower`` against its
  best upper bound);
* two intervals are ``LESS``/``GREATER`` only when they do not overlap,
  ``EQUAL`` only when both are the same point, and ``INCOMPARABLE``
  whenever they overlap.
"""

from repro.common.ordering import PartialOrder


class Interval:
    """A closed interval ``[lower, upper]`` over the reals.

    Instances are immutable and hashable so they can be shared freely
    across memo groups and plan nodes.
    """

    __slots__ = ("lower", "upper")

    def __init__(self, lower, upper=None):
        """Create ``[lower, upper]``; a single argument makes a point.

        Raises ``ValueError`` if ``lower > upper`` or a bound is NaN.
        """
        if upper is None:
            upper = lower
        lower = float(lower)
        upper = float(upper)
        if lower != lower or upper != upper:  # NaN check
            raise ValueError("interval bounds must not be NaN")
        if lower > upper:
            raise ValueError(
                "interval lower bound %r exceeds upper bound %r" % (lower, upper)
            )
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def __setattr__(self, name, value):
        raise AttributeError("Interval is immutable")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_floats(cls, lower, upper):
        """``Interval(lower, upper)`` for bounds that already are floats.

        The cost model builds two intervals per plan node; this skips
        the conversions and decides validity with one comparison, which
        NaN and inverted bounds both fail — they then go through the
        constructor for its ``ValueError``.
        """
        if lower <= upper:
            interval = object.__new__(cls)
            _set_lower(interval, lower)
            _set_upper(interval, upper)
            return interval
        return cls(lower, upper)

    @classmethod
    def point(cls, value):
        """The degenerate interval ``[value, value]``."""
        return cls(value, value)

    @classmethod
    def hull(cls, intervals):
        """Smallest interval containing every interval in ``intervals``."""
        intervals = list(intervals)
        if not intervals:
            raise ValueError("hull of no intervals is undefined")
        return cls(
            min(iv.lower for iv in intervals),
            max(iv.upper for iv in intervals),
        )

    @classmethod
    def envelope_min(cls, intervals):
        """Interval of ``min`` over uncertain quantities.

        This is the paper's cost rule for a choose-plan operator: with
        alternatives ``[a, b]`` and ``[c, d]`` the chosen plan costs at
        best ``min(a, c)`` and at worst ``min(b, d)`` (the operator
        always picks its cheapest input once bindings are known).
        """
        intervals = list(intervals)
        if not intervals:
            raise ValueError("envelope_min of no intervals is undefined")
        return cls(
            min(iv.lower for iv in intervals),
            min(iv.upper for iv in intervals),
        )

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------

    @property
    def is_point(self):
        """True when lower == upper, i.e. the value is fully known."""
        return self.lower == self.upper

    @property
    def width(self):
        """Length of the interval (zero for points)."""
        return self.upper - self.lower

    @property
    def midpoint(self):
        """Arithmetic centre of the interval."""
        return (self.lower + self.upper) / 2.0

    def contains(self, value):
        """True when ``value`` lies within the closed interval."""
        return self.lower <= value <= self.upper

    # ------------------------------------------------------------------
    # Arithmetic (all monotone, hence exact on intervals)
    # ------------------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return Interval(self.lower + other.lower, self.upper + other.upper)

    __radd__ = __add__

    # ------------------------------------------------------------------
    # Comparison (the heart of the paper)
    # ------------------------------------------------------------------

    def compare(self, other):
        """Compare per the paper: overlap means :data:`INCOMPARABLE`.

        ``EQUAL`` is returned only for identical point intervals —
        identical *wide* intervals are deliberately incomparable
        because the two underlying plans may win under different
        bindings (the prototype's "most naive", conservative choice
        described at the end of Section 3).
        """
        other = _coerce(other)
        if self.is_point and other.is_point and self.lower == other.lower:
            return PartialOrder.EQUAL
        if self.upper < other.lower:
            return PartialOrder.LESS
        if other.upper < self.lower:
            return PartialOrder.GREATER
        # Overlap — touching at a single endpoint included.
        return PartialOrder.INCOMPARABLE

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented
        return self.lower == other.lower and self.upper == other.upper

    def __hash__(self):
        return hash((self.lower, self.upper))

    def __repr__(self):
        if self.is_point:
            return "Interval(%.6g)" % self.lower
        return "Interval(%.6g, %.6g)" % (self.lower, self.upper)

    def __iter__(self):
        yield self.lower
        yield self.upper


_set_lower = Interval.lower.__set__
_set_upper = Interval.upper.__set__


def _coerce(value):
    """Accept bare numbers anywhere an interval is expected."""
    if isinstance(value, Interval):
        return value
    return Interval.point(value)
