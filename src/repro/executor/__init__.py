"""The execution engine: Volcano-style batch iterators
(:mod:`.vectorized`), access modules, and start-up-time machinery.

The choose-plan operator — the run-time primitive of the 1989 paper —
lives here: at plan activation its decision procedure re-evaluates the
alternatives' cost functions under the instantiated bindings (with
DAG-shared subplan costs computed once) and executes the cheapest
alternative.
"""

from repro.executor.access_module import AccessModule
from repro.executor.engine import (
    ExecutionContext,
    ExecutionResult,
    execute_plan,
)
from repro.executor.midquery import (
    BreakerEvent,
    MidQueryReport,
    ReoptPolicy,
    execute_midquery,
)
from repro.executor.shrinking import ShrinkingAccessModule
from repro.executor.startup import StartupReport, activate_plan, resolve_dynamic_plan
from repro.executor.validation import node_is_feasible, validate_plan

__all__ = [
    "AccessModule",
    "BreakerEvent",
    "ExecutionContext",
    "ExecutionResult",
    "MidQueryReport",
    "ReoptPolicy",
    "execute_midquery",
    "ShrinkingAccessModule",
    "StartupReport",
    "activate_plan",
    "execute_plan",
    "node_is_feasible",
    "resolve_dynamic_plan",
    "validate_plan",
]
