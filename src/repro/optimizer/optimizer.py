"""Public optimizer facade.

Four entry points mirror the paper's optimization scenarios:

* :func:`optimize_static` — traditional compile-time optimization with
  expected parameter values; produces a static plan.
* :func:`optimize_dynamic` — dynamic-plan optimization with interval
  costs; produces a dynamic plan containing choose-plan operators.
* :func:`optimize_runtime` — complete optimization at start-up time
  with actual bindings (the "brute-force" remedy).
* :func:`optimize_exhaustive` — every comparison incomparable; the
  exhaustive plan used to validate the optimality guarantee.

Every entry point takes a :class:`~repro.optimizer.query.QuerySpec`.
"""

from repro.cost.parameters import Valuation
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.search import OptimizationResult, SearchEngine

__all__ = [
    "OptimizationResult",
    "optimize_dynamic",
    "optimize_exhaustive",
    "optimize_runtime",
    "optimize_static",
]


def optimize_static(catalog, query, config=None):
    """Traditional optimization: one static plan from expected values."""
    if config is None:
        config = OptimizerConfig.static()
    elif not config.is_static:
        raise ValueError("optimize_static needs a static-mode config")
    return SearchEngine(catalog, config).optimize(query)


def optimize_dynamic(catalog, query, config=None):
    """Dynamic-plan optimization: interval costs, choose-plan operators."""
    if config is None:
        config = OptimizerConfig.dynamic()
    return SearchEngine(catalog, config).optimize(query)


def optimize_runtime(catalog, query, bindings, config=None):
    """Complete optimization at start-up time with actual bindings.

    This is the paper's second scenario: parameters are points (their
    true values), costs are totally ordered, and a fresh static plan is
    produced for this one invocation.
    """
    if config is None:
        config = OptimizerConfig.static()
    valuation = Valuation.runtime(query.parameter_space, bindings)
    return SearchEngine(catalog, config).optimize(query, valuation=valuation)


def optimize_exhaustive(catalog, query, config=None):
    """Produce the exhaustive plan (every comparison incomparable)."""
    if config is None:
        config = OptimizerConfig.exhaustive()
    return SearchEngine(catalog, config).optimize(query)
