"""Property tests for the interval cost arithmetic (Section 5).

Interval arithmetic is the foundation of the whole partial-order cost
model, so these tests state its algebraic contract as hypotheses over
random intervals rather than hand-picked examples:

* **containment** — for any members ``x in A`` and ``y in B``, the
  combined value lands inside the combined interval (`+`, ``hull``,
  ``envelope_min``).  IEEE-754 rounding is monotone, so containment
  holds exactly, with no tolerance;
* **comparison structure** — ``INCOMPARABLE`` is symmetric,
  ``LESS``/``GREATER`` are dual, overlap is equivalent to
  incomparability for non-identical-point pairs, and ``EQUAL`` arises
  only for identical point intervals;
* **degenerate collapse** — point intervals behave exactly like the
  scalars they wrap, so the interval optimizer degenerates to the
  classic one when nothing is uncertain (the paper's requirement that
  dynamic plans cost nothing extra for fully-bound queries).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.intervals import Interval
from repro.common.ordering import PartialOrder

# Bounds keep products finite and avoid subnormal noise; the paper's
# quantities (cardinalities, selectivities, seconds) all fit well
# inside this range.
MAGNITUDE = 1e9

finite = st.floats(
    min_value=-MAGNITUDE,
    max_value=MAGNITUDE,
    allow_nan=False,
    allow_infinity=False,
)
nonneg = st.floats(
    min_value=0.0,
    max_value=MAGNITUDE,
    allow_nan=False,
    allow_infinity=False,
)
fractions = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def intervals(draw, elements=finite):
    """A random interval (degenerate points included)."""
    a = draw(elements)
    b = draw(elements)
    return Interval(min(a, b), max(a, b))


@st.composite
def members(draw, elements=finite):
    """An interval plus a value inside it."""
    interval = draw(intervals(elements))
    fraction = draw(fractions)
    value = interval.lower + fraction * (interval.upper - interval.lower)
    # Rounding can land a hair outside; clamp back into the interval.
    value = min(max(value, interval.lower), interval.upper)
    return interval, value


# ----------------------------------------------------------------------
# Containment: combining members stays within combining intervals
# ----------------------------------------------------------------------


@given(members(), members())
def test_addition_containment(am, bm):
    a, x = am
    b, y = bm
    assert (a + b).contains(x + y)


@given(st.lists(members(), min_size=1, max_size=6))
def test_hull_contains_every_member(pairs):
    hull = Interval.hull(interval for interval, _ in pairs)
    for interval, value in pairs:
        assert hull.contains(value)
        assert hull.contains(interval.lower)
        assert hull.contains(interval.upper)


@given(st.lists(members(), min_size=1, max_size=6))
def test_envelope_min_contains_minimum_member(pairs):
    """Choose-plan cost rule: min over members is in envelope_min."""
    envelope = Interval.envelope_min(interval for interval, _ in pairs)
    assert envelope.contains(min(value for _, value in pairs))


@given(st.lists(intervals(), min_size=1, max_size=6))
def test_envelope_min_within_hull(ivs):
    envelope = Interval.envelope_min(ivs)
    hull = Interval.hull(ivs)
    assert hull.lower <= envelope.lower
    assert envelope.upper <= hull.upper
    assert envelope.lower == hull.lower


# ----------------------------------------------------------------------
# Comparison structure
# ----------------------------------------------------------------------


@given(intervals(), intervals())
def test_incomparability_is_symmetric(a, b):
    forward = a.compare(b)
    backward = b.compare(a)
    assert (forward == PartialOrder.INCOMPARABLE) == (
        backward == PartialOrder.INCOMPARABLE
    )


@given(intervals(), intervals())
def test_less_greater_duality(a, b):
    forward = a.compare(b)
    backward = b.compare(a)
    if forward == PartialOrder.LESS:
        assert backward == PartialOrder.GREATER
    if forward == PartialOrder.GREATER:
        assert backward == PartialOrder.LESS
    if forward == PartialOrder.EQUAL:
        assert backward == PartialOrder.EQUAL


@given(intervals(), intervals())
def test_overlap_means_incomparable(a, b):
    """The paper's rule: only disjoint intervals are ordered."""
    result = a.compare(b)
    identical_points = a.is_point and b.is_point and a.lower == b.lower
    if identical_points:
        assert result == PartialOrder.EQUAL
    elif a.lower <= b.upper and b.lower <= a.upper:
        assert result == PartialOrder.INCOMPARABLE
    else:
        assert result in (PartialOrder.LESS, PartialOrder.GREATER)


@given(intervals(), intervals())
def test_equal_only_for_identical_points(a, b):
    if a.compare(b) == PartialOrder.EQUAL:
        assert a.is_point and b.is_point and a.lower == b.lower


# ----------------------------------------------------------------------
# Degenerate intervals collapse to scalar arithmetic
# ----------------------------------------------------------------------


@given(finite, finite)
def test_point_addition_collapses(x, y):
    result = Interval.point(x) + Interval.point(y)
    assert result.is_point
    assert result.lower == x + y


@given(finite, finite)
def test_point_comparison_collapses(x, y):
    result = Interval.point(x).compare(Interval.point(y))
    if x < y:
        assert result == PartialOrder.LESS
    elif x > y:
        assert result == PartialOrder.GREATER
    else:
        assert result == PartialOrder.EQUAL


@given(finite)
@settings(max_examples=50)
def test_point_properties(x):
    point = Interval.point(x)
    assert point.is_point
    assert point.width == 0.0
    assert point.midpoint == x
    assert point.contains(x)
    assert Interval.hull([point]) == point
    assert Interval.envelope_min([point]) == point


@given(finite, nonneg)
def test_scalar_coercion_matches_point(x, y):
    """Bare numbers coerce to points in mixed arithmetic."""
    interval = Interval.point(x)
    assert interval + y == interval + Interval.point(y)
    assert interval.compare(y) == interval.compare(Interval.point(y))
