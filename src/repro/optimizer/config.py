"""Optimizer configuration: modes, pruning, and heuristics.

The modes correspond to the paper's three cost treatments:

* ``STATIC`` — traditional optimization; every parameter at its
  expected value, costs are points, totally ordered, one plan out.
* ``DYNAMIC`` — dynamic-plan optimization; uncertain parameters at
  their bounds, interval costs, partially ordered, choose-plan
  operators link incomparable alternatives.
* ``EXHAUSTIVE`` — every comparison of non-identical costs is declared
  incomparable, producing the paper's "exhaustive plan" that provably
  contains the optimal plan for every binding (used to validate the
  optimality guarantee, Section 3).
"""

import enum

from repro.cost.model import CHOOSE_PLAN_OVERHEAD_SECONDS


class OptimizerMode(enum.Enum):
    """Cost treatment selected for an optimization run."""

    STATIC = "static"
    DYNAMIC = "dynamic"
    EXHAUSTIVE = "exhaustive"


class OptimizerConfig:
    """Tunable behaviour of the search engine.

    Parameters
    ----------
    mode:
        The :class:`OptimizerMode`.
    branch_and_bound:
        Enable pruning with cost bounds.  With interval costs only the
        lower bound may be subtracted, which is exactly the weakened
        pruning the paper analyzes (Sections 3 and 5); disable for the
        ablation benchmark.
    keep_equal_cost_plans:
        Keep plans whose costs are exactly equal, the paper prototype's
        "most naive manner" (Section 3).  ``False``, the default, drops
        two kinds, neither of which a choose-plan's first-wins decision
        could ever pick: a merge join whose commuted twin (inputs
        swapped, same predicates) the group already implements is never
        built, in every mode, which changes no cost and no decision but
        shrinks plans (paper query 5: 1,123 nodes to 958); and in
        dynamic mode a candidate whose cost is the same point as a kept
        one's is pruned, as static mode always does, which saves the
        choose-plan's decision overhead.  The figure harness
        (``ExperimentContext``) and the ablation's "paper" row pass
        ``True``, so Figures 3-8 keep the prototype's plan sizes.
    multipoint_heuristic:
        The Section 3 heuristic: evaluate both cost functions at a
        number of sampled parameter settings and drop a plan that is
        more expensive at every sample even though the intervals
        overlap.  Off by default, like the paper's prototype.
    multipoint_samples:
        Number of sampled parameter settings for the heuristic (drawn
        from a generator seeded with 0 and the query name).
    choose_plan_overhead:
        Seconds charged per choose-plan decision at start-up time.
    """

    def __init__(
        self,
        mode=OptimizerMode.DYNAMIC,
        branch_and_bound=True,
        keep_equal_cost_plans=False,
        multipoint_heuristic=False,
        multipoint_samples=5,
        choose_plan_overhead=CHOOSE_PLAN_OVERHEAD_SECONDS,
    ):
        self.mode = mode
        self.branch_and_bound = branch_and_bound
        self.keep_equal_cost_plans = keep_equal_cost_plans
        self.multipoint_heuristic = multipoint_heuristic
        self.multipoint_samples = multipoint_samples
        self.choose_plan_overhead = choose_plan_overhead

    @classmethod
    def static(cls, **overrides):
        """Configuration for traditional (static) optimization."""
        overrides.setdefault("mode", OptimizerMode.STATIC)
        return cls(**overrides)

    @classmethod
    def dynamic(cls, **overrides):
        """Configuration for dynamic-plan optimization."""
        overrides.setdefault("mode", OptimizerMode.DYNAMIC)
        return cls(**overrides)

    @classmethod
    def exhaustive(cls, **overrides):
        """Configuration producing the exhaustive plan."""
        overrides.setdefault("mode", OptimizerMode.EXHAUSTIVE)
        return cls(**overrides)

    @property
    def is_static(self):
        """True in traditional mode."""
        return self.mode is OptimizerMode.STATIC

    @property
    def is_exhaustive(self):
        """True in exhaustive mode."""
        return self.mode is OptimizerMode.EXHAUSTIVE

    def __repr__(self):
        return "OptimizerConfig(mode=%s, bnb=%s)" % (
            self.mode.value,
            self.branch_and_bound,
        )
