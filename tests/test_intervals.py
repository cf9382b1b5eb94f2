"""Interval arithmetic and the paper's comparison semantics."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.common.intervals import Interval
from repro.common.ordering import PartialOrder


def bounded_floats(lo=-1e6, hi=1e6):
    return st.floats(
        min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False
    )


@st.composite
def intervals(draw):
    a = draw(bounded_floats())
    b = draw(bounded_floats())
    return Interval(min(a, b), max(a, b))


class TestFromFloats:
    """The cost model's constructor for bounds that already are floats:
    one ``lower <= upper`` test in place of two conversions, a NaN check
    and an order check — and nothing else may differ."""

    @given(intervals())
    def test_equals_the_constructor_on_valid_bounds(self, interval):
        fast = Interval.from_floats(interval.lower, interval.upper)
        assert type(fast) is Interval
        assert (fast.lower, fast.upper) == (interval.lower, interval.upper)
        assert fast == interval and hash(fast) == hash(interval)
        assert repr(fast) == repr(interval)
        with pytest.raises(AttributeError):
            fast.lower = 0.0

    @given(
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    def test_rejects_exactly_what_the_constructor_rejects(self, lower, upper):
        try:
            expected = Interval(lower, upper)
        except ValueError as error:
            with pytest.raises(ValueError) as raised:
                Interval.from_floats(lower, upper)
            assert str(raised.value) == str(error)
        else:
            assert Interval.from_floats(lower, upper) == expected


class TestConstruction:
    def test_point_from_single_argument(self):
        interval = Interval(3.0)
        assert interval.lower == interval.upper == 3.0
        assert interval.is_point

    def test_point_classmethod(self):
        assert Interval.point(5).lower == 5.0

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Interval(float("nan"), 1.0)

    def test_immutable(self):
        interval = Interval(1, 2)
        with pytest.raises(AttributeError):
            interval.lower = 0

    def test_hull(self):
        hull = Interval.hull([Interval(1, 2), Interval(0, 1.5), Interval(3)])
        assert hull == Interval(0, 3)

    def test_hull_empty_raises(self):
        with pytest.raises(ValueError):
            Interval.hull([])

    def test_iter_unpacks_bounds(self):
        lower, upper = Interval(1, 2)
        assert (lower, upper) == (1.0, 2.0)


class TestEnvelopeMin:
    """The choose-plan cost rule (paper Section 5)."""

    def test_paper_example(self):
        # Alternatives [0,10] and [1,1]: envelope is [0,1].
        envelope = Interval.envelope_min([Interval(0, 10), Interval(1, 1)])
        assert envelope == Interval(0, 1)

    def test_single_interval_is_identity(self):
        assert Interval.envelope_min([Interval(2, 5)]) == Interval(2, 5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Interval.envelope_min([])

    @given(st.lists(intervals(), min_size=1, max_size=6))
    def test_envelope_bounds_each_alternative_below(self, ivs):
        envelope = Interval.envelope_min(ivs)
        for iv in ivs:
            assert envelope.lower <= iv.lower
            assert envelope.upper <= iv.upper

    @given(st.lists(intervals(), min_size=1, max_size=6))
    def test_envelope_is_tight(self, ivs):
        envelope = Interval.envelope_min(ivs)
        assert any(math.isclose(envelope.lower, iv.lower) for iv in ivs)
        assert any(math.isclose(envelope.upper, iv.upper) for iv in ivs)


class TestArithmetic:
    def test_addition_adds_both_bounds(self):
        assert Interval(1, 2) + Interval(3, 5) == Interval(4, 7)

    def test_addition_with_scalar(self):
        assert Interval(1, 2) + 1 == Interval(2, 3)
        assert 1 + Interval(1, 2) == Interval(2, 3)

    @given(intervals(), intervals())
    def test_addition_commutative(self, a, b):
        assert a + b == b + a

    @given(intervals(), intervals(), intervals())
    def test_addition_associative(self, a, b, c):
        left = (a + b) + c
        right = a + (b + c)
        assert math.isclose(left.lower, right.lower, abs_tol=1e-6)
        assert math.isclose(left.upper, right.upper, abs_tol=1e-6)

class TestComparison:
    """Overlap means incomparable (paper Sections 3 and 5)."""

    def test_disjoint_less(self):
        assert Interval(1, 2).compare(Interval(3, 4)) is PartialOrder.LESS

    def test_disjoint_greater(self):
        assert Interval(3, 4).compare(Interval(1, 2)) is PartialOrder.GREATER

    def test_overlapping_incomparable(self):
        assert Interval(1, 3).compare(Interval(2, 4)) is PartialOrder.INCOMPARABLE

    def test_nested_incomparable(self):
        assert Interval(0, 10).compare(Interval(3, 4)) is PartialOrder.INCOMPARABLE

    def test_equal_points(self):
        assert Interval(2).compare(Interval(2.0)) is PartialOrder.EQUAL

    def test_identical_wide_intervals_incomparable(self):
        # Two plans with the same wide interval may each win under
        # different bindings — the prototype keeps both.
        assert Interval(1, 5).compare(Interval(1, 5)) is PartialOrder.INCOMPARABLE

    def test_touching_intervals_incomparable(self):
        assert Interval(1, 2).compare(Interval(2, 3)) is PartialOrder.INCOMPARABLE

    def test_point_on_boundary_incomparable(self):
        assert Interval(2).compare(Interval(2, 3)) is PartialOrder.INCOMPARABLE

    def test_point_below_interval(self):
        assert Interval(1).compare(Interval(2, 3)) is PartialOrder.LESS

    @given(intervals(), intervals())
    def test_comparison_antisymmetric(self, a, b):
        flipped = {
            PartialOrder.LESS: PartialOrder.GREATER,
            PartialOrder.GREATER: PartialOrder.LESS,
        }
        reverse = b.compare(a)
        assert a.compare(b) is flipped.get(reverse, reverse)

    @given(intervals(), intervals())
    def test_less_implies_disjoint(self, a, b):
        if a.compare(b) is PartialOrder.LESS:
            assert a.upper < b.lower

    @given(intervals())
    def test_reflexive(self, a):
        result = a.compare(a)
        if a.is_point:
            assert result is PartialOrder.EQUAL
        else:
            assert result is PartialOrder.INCOMPARABLE


class TestPredicates:
    def test_contains(self):
        assert Interval(1, 3).contains(2)
        assert Interval(1, 3).contains(1)
        assert not Interval(1, 3).contains(3.5)

    def test_width_and_midpoint(self):
        interval = Interval(1, 3)
        assert interval.width == 2
        assert interval.midpoint == 2

    def test_repr_point(self):
        assert repr(Interval(2)) == "Interval(2)"

    def test_repr_interval(self):
        assert "1" in repr(Interval(1, 2)) and "2" in repr(Interval(1, 2))

    def test_hashable(self):
        assert len({Interval(1, 2), Interval(1, 2), Interval(1, 3)}) == 2
