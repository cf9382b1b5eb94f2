"""Four-valued comparison results for partially ordered costs.

Traditional optimizers require cost comparisons to return one of
``LESS``, ``GREATER``, ``EQUAL``.  The paper (Section 3) extends the
cost abstract data type so that the comparison function may also
return ``INCOMPARABLE``, which is what induces dynamic plans.
"""

import enum


class PartialOrder(enum.Enum):
    """Result of comparing two elements of a partially ordered set."""

    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"
