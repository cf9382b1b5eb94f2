"""The cost abstract data type: interval costs and their combinators.

Costs are :class:`~repro.common.intervals.Interval` values measured in
seconds.  This module adds the plan-level combinators the paper
defines in Section 5:

* :func:`compare_costs` — the DBI-defined comparison, four-valued;
* :func:`choose_plan_cost` — the cost of a dynamic (sub)plan: the
  pointwise minimum envelope of the alternatives plus the decision
  overhead; the paper's worked example ``[0,10] vs [1,1]`` with
  overhead ``[0.01, 0.01]`` yields ``[0.01, 1.01]``.
"""

from repro.common.intervals import Interval
from repro.common.ordering import PartialOrder

#: Cost charged for evaluating one choose-plan decision procedure at
#: start-up time.  Small relative to any data manipulation, as the
#: paper requires (its example uses [0.01, 0.01]; we are slightly more
#: optimistic because our decision procedures memoize shared subplans).
CHOOSE_PLAN_OVERHEAD_SECONDS = 0.01


class CostResult:
    """Everything the cost model derives for one plan node.

    ``cost`` and ``cardinality`` are intervals; ``sort_orders`` is the
    frozenset of qualified attributes the output is sorted on (possibly
    empty).  Instances are cached per plan node by the evaluator.
    """

    __slots__ = ("cost", "cardinality", "sort_orders")

    def __init__(self, cost, cardinality, sort_orders=frozenset()):
        self.cost = cost
        self.cardinality = cardinality
        self.sort_orders = frozenset(sort_orders)

    def __repr__(self):
        return "CostResult(cost=%r, cardinality=%r, sorted_on=%s)" % (
            self.cost,
            self.cardinality,
            sorted(self.sort_orders) or "-",
        )


def compare_costs(left, right, exhaustive=False):
    """Compare two cost intervals per the paper's rules.

    With ``exhaustive=True`` every pair of distinct costs is declared
    incomparable — the mode that produces the paper's "exhaustive
    plan", used to validate the optimality guarantee.
    """
    if exhaustive:
        if left == right and left.is_point:
            return PartialOrder.EQUAL
        return PartialOrder.INCOMPARABLE
    return left.compare(right)


def choose_plan_cost(alternative_costs, overhead=CHOOSE_PLAN_OVERHEAD_SECONDS):
    """Cost of a choose-plan node over the given alternatives.

    The operator always executes its cheapest input, so the combined
    cost is the interval ``[min of lowers, min of uppers]`` plus the
    decision-procedure overhead (paper Section 5).
    """
    envelope = Interval.envelope_min(alternative_costs)
    return envelope + Interval.point(overhead)
