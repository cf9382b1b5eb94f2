"""The dynamic-plan optimizer: a Volcano-style search engine extended
with partially ordered (interval) costs and choose-plan insertion.

This package is the reproduction of the paper's primary contribution:

* :mod:`.memo` — groups of logically equivalent expressions with
  memoization (top-down dynamic programming);
* :mod:`.rules` — transformation rules (join commutativity and
  associativity, generating all bushy trees) and implementation rules
  (Table 1), plus the sort and choose-plan (robustness) enforcers;
* :mod:`.search` — the search engine handling incomparable costs:
  per (group, property) it retains the *set* of potentially optimal
  plans and links them with a choose-plan operator;
* :mod:`.optimizer` — the public facade: ``optimize_static``,
  ``optimize_dynamic``, ``optimize_runtime``, ``optimize_exhaustive``.
"""

from repro.optimizer.config import OptimizerConfig, OptimizerMode
from repro.optimizer.optimizer import (
    OptimizationResult,
    optimize_dynamic,
    optimize_exhaustive,
    optimize_runtime,
    optimize_static,
)
from repro.optimizer.properties import PhysicalProperty
from repro.optimizer.query import (
    QuerySpec,
    canonical_signature,
    input_signature,
    signature_digest,
)
from repro.optimizer.search import SearchEngine, SearchStatistics

__all__ = [
    "OptimizationResult",
    "OptimizerConfig",
    "OptimizerMode",
    "PhysicalProperty",
    "QuerySpec",
    "SearchEngine",
    "SearchStatistics",
    "canonical_signature",
    "input_signature",
    "signature_digest",
    "optimize_dynamic",
    "optimize_exhaustive",
    "optimize_runtime",
    "optimize_static",
]
